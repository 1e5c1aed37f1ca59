//! Crash-safe persistent spill for preprocessed material — the durable
//! layer between the offline and online phases.
//!
//! Under seed-compressed dealing a pooled material set is a pure
//! function of its 64-bit seed (plus the session fingerprint), so the
//! store never writes expanded correlations: it is an append-only log
//! of *seed events* — "seed s was dealt into the pool", "seed s was
//! consumed" — each carrying the ledger snapshot at that moment. A
//! restart replays the log, re-expands the dealt-but-unconsumed seeds
//! locally and resumes the exact ledger, which is why a warm-booted
//! server serves bit-identical results without re-preprocessing.
//!
//! Because the log holds seeds and never tables, a change to how a seed
//! *expands* (the garbling hash at `DealtSeed` v2, the word-wise
//! bit-triple draw at v3) does not touch this format: `VERSION` below
//! moves only when the header or record layout does. A store written
//! before such a change warm-boots by re-expanding its pending seeds
//! under the new function — there is nothing to migrate. Peers that would expand differently are told apart on the
//! wire, by the `DealtSeed` version byte.
//!
//! ## On-disk format (all integers little-endian)
//!
//! ```text
//! header (32 B):
//!   magic      8 B   "C2PIMST\0"
//!   version    4 B   format version (currently 1)
//!   reserved   4 B   zero
//!   fingerprint 8 B  SessionCore::session_fingerprint of the writer
//!   checksum   8 B   FNV-1a over the preceding 24 bytes
//! record (repeated):
//!   len        4 B   payload length (excludes kind and checksum)
//!   kind       1 B   1 = dealt, 2 = consumed, 3 = flush
//!   payload    len B seed, stream position, ledger snapshot
//!   checksum   8 B   FNV-1a over kind ‖ payload
//! ```
//!
//! Records are appended without per-record fsync: on a process kill the
//! OS page cache still carries every completed `write`, and a torn tail
//! record (power loss, mid-write crash) fails its length or checksum
//! check on the next open and is truncated away — losing at most the
//! very last event, never corrupting the prefix. A graceful drain
//! appends a flush marker and fsyncs.
//!
//! ## Threat model
//!
//! A persisted seed is exactly as sensitive as the expanded material it
//! derives — anyone who reads the file (and knows the public session
//! shape) can expand every pending correlation. The store therefore
//! creates its file with mode `0o600` on Unix, and the session
//! fingerprint in the header doubles as a replay guard: a store written
//! by one deployment refuses to open under another, and the fingerprint
//! enters the expansion PRG as the [`DealtSeed`](c2pi_mpc::dealer::DealtSeed)
//! nonce, so even a copied seed value expands to unrelated bits under a
//! different deployment.

use crate::report::PreprocessLedger;
use crate::{PiError, Result};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"C2PIMST\0";
const VERSION: u32 = 1;
const HEADER_LEN: usize = 32;
/// Payload of the current record version: seed, stream position and the
/// ten ledger fields.
const PAYLOAD_LEN: usize = 8 * 12;
/// Upper bound accepted while scanning — anything larger is corruption,
/// not a record.
const MAX_PAYLOAD_LEN: u32 = 1 << 16;

/// FNV-1a 64-bit — small, dependency-free, and plenty for torn-write
/// detection (this is an integrity check, not an authenticity one).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn store_err(path: &Path, op: &str, e: std::io::Error) -> PiError {
    PiError::Store(format!("{}: {op}: {e}", path.display()))
}

/// Event kinds in the store log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RecordKind {
    /// A seed was dealt and its material pushed into the pool.
    Dealt = 1,
    /// A (previously dealt, or inline) seed's material was consumed.
    Consumed = 2,
    /// Graceful-drain marker carrying the final ledger snapshot.
    Flush = 3,
}

impl RecordKind {
    fn from_byte(b: u8) -> Option<RecordKind> {
        match b {
            1 => Some(RecordKind::Dealt),
            2 => Some(RecordKind::Consumed),
            3 => Some(RecordKind::Flush),
            _ => None,
        }
    }
}

/// What replaying a store log recovered; consumed by
/// [`MaterialPool::attach_store`](crate::pool::MaterialPool::attach_store).
#[derive(Debug, Clone, Default)]
pub(crate) struct StoreScan {
    /// Seeds dealt but not consumed, in deal order.
    pub pending: Vec<u64>,
    /// Highest seed-stream position any record carries. For an
    /// exclusive (unsharded) pool appends are monotone so this is the
    /// last record's position; a sharded deployment's segments each see
    /// only a subsequence of the global stream, so the max — not the
    /// tail — is the honest watermark.
    pub drawn: u64,
    /// Ledger snapshot of the last record.
    pub ledger: PreprocessLedger,
    /// Valid records replayed.
    pub records: usize,
    /// Whether a torn tail was truncated away.
    pub truncated: bool,
}

/// Warm-boot summary returned by
/// [`MaterialPool::attach_store`](crate::pool::MaterialPool::attach_store).
#[derive(Debug, Clone, Default)]
pub struct RestoreReport {
    /// Material sets re-expanded from persisted seeds into the pool.
    pub restored: usize,
    /// Seeds the previous process had drawn (the stream position the
    /// pool fast-forwarded to).
    pub drawn: u64,
    /// Valid records the scan replayed.
    pub records: usize,
    /// Whether a torn tail record (crash mid-append) was discarded.
    pub truncated_tail: bool,
}

/// An open, append-positioned store file. All mutation goes through
/// `MaterialStore::append`/`MaterialStore::sync`, driven by the
/// owning pool under its lock.
#[derive(Debug)]
pub struct MaterialStore {
    file: File,
    path: PathBuf,
}

impl MaterialStore {
    /// Opens (or creates) the store at `path` for the deployment
    /// identified by `fingerprint`, replaying any existing log. A torn
    /// tail record is truncated away (reported in the scan); a
    /// fingerprint or header mismatch is an error — a store never
    /// silently serves a different deployment.
    pub(crate) fn open(path: &Path, fingerprint: u64) -> Result<(MaterialStore, StoreScan)> {
        let mut opts = OpenOptions::new();
        opts.read(true).write(true).create(true);
        #[cfg(unix)]
        {
            use std::os::unix::fs::OpenOptionsExt;
            opts.mode(0o600);
        }
        let mut file = opts.open(path).map_err(|e| store_err(path, "open", e))?;
        let len = file.metadata().map_err(|e| store_err(path, "stat", e))?.len();
        if len == 0 {
            let mut header = Vec::with_capacity(HEADER_LEN);
            header.extend_from_slice(MAGIC);
            header.extend_from_slice(&VERSION.to_le_bytes());
            header.extend_from_slice(&0u32.to_le_bytes());
            header.extend_from_slice(&fingerprint.to_le_bytes());
            header.extend_from_slice(&fnv1a(&header[..24]).to_le_bytes());
            file.write_all(&header).map_err(|e| store_err(path, "write header", e))?;
            file.sync_all().map_err(|e| store_err(path, "sync header", e))?;
            return Ok((MaterialStore { file, path: path.to_path_buf() }, StoreScan::default()));
        }
        let mut buf = Vec::with_capacity(len as usize);
        file.read_to_end(&mut buf).map_err(|e| store_err(path, "read", e))?;
        let scan = Self::replay(path, &buf, fingerprint)?;
        if scan.truncated {
            let good = Self::good_prefix_len(&buf);
            file.set_len(good as u64).map_err(|e| store_err(path, "truncate torn tail", e))?;
        }
        file.seek(SeekFrom::End(0)).map_err(|e| store_err(path, "seek", e))?;
        Ok((MaterialStore { file, path: path.to_path_buf() }, scan))
    }

    /// Byte length of the valid header+records prefix of `buf`.
    fn good_prefix_len(buf: &[u8]) -> usize {
        let mut at = HEADER_LEN;
        while let Some(next) = Self::record_end(buf, at) {
            at = next;
        }
        at
    }

    /// End offset of a valid record starting at `at`, or `None`.
    fn record_end(buf: &[u8], at: usize) -> Option<usize> {
        if at + 5 > buf.len() {
            return None;
        }
        let len = u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]]);
        if len > MAX_PAYLOAD_LEN {
            return None;
        }
        let end = at + 5 + len as usize + 8;
        if end > buf.len() {
            return None;
        }
        let body = &buf[at + 4..at + 5 + len as usize];
        let mut sum = [0u8; 8];
        sum.copy_from_slice(&buf[end - 8..end]);
        if fnv1a(body) != u64::from_le_bytes(sum) {
            return None;
        }
        RecordKind::from_byte(buf[at + 4])?;
        Some(end)
    }

    fn replay(path: &Path, buf: &[u8], fingerprint: u64) -> Result<StoreScan> {
        let fail = |why: String| PiError::Store(format!("{}: {why}", path.display()));
        if buf.len() < HEADER_LEN {
            return Err(fail("truncated header".into()));
        }
        if &buf[..8] != MAGIC {
            return Err(fail("bad magic (not a material store)".into()));
        }
        let mut w4 = [0u8; 4];
        w4.copy_from_slice(&buf[8..12]);
        let version = u32::from_le_bytes(w4);
        if version != VERSION {
            return Err(fail(format!("unsupported version {version}")));
        }
        let mut w8 = [0u8; 8];
        w8.copy_from_slice(&buf[16..24]);
        let file_fp = u64::from_le_bytes(w8);
        w8.copy_from_slice(&buf[24..32]);
        if fnv1a(&buf[..24]) != u64::from_le_bytes(w8) {
            return Err(fail("header checksum mismatch".into()));
        }
        if file_fp != fingerprint {
            return Err(fail(format!(
                "belongs to a different deployment (fingerprint {file_fp:#018x}, \
                 session {fingerprint:#018x}); refusing to reuse seeds across sessions"
            )));
        }
        let mut scan = StoreScan::default();
        let mut at = HEADER_LEN;
        while let Some(end) = Self::record_end(buf, at) {
            let kind = RecordKind::from_byte(buf[at + 4]).expect("validated by record_end");
            let payload = &buf[at + 5..end - 8];
            if payload.len() != PAYLOAD_LEN {
                return Err(fail(format!("record payload length {}", payload.len())));
            }
            let word = |i: usize| {
                let mut w = [0u8; 8];
                w.copy_from_slice(&payload[8 * i..8 * i + 8]);
                u64::from_le_bytes(w)
            };
            let seed = word(0);
            scan.drawn = scan.drawn.max(word(1));
            scan.ledger = PreprocessLedger {
                generated_offline: word(2),
                generated_inline: word(3),
                consumed: word(4),
                available: word(5),
                generation_seconds: f64::from_bits(word(6)),
                base_ots: word(7),
                extended_ots: word(8),
                seed_bytes: word(9),
                expanded_bytes: word(10),
                restored: word(11),
            };
            match kind {
                RecordKind::Dealt => scan.pending.push(seed),
                RecordKind::Consumed => {
                    if let Some(i) = scan.pending.iter().position(|&s| s == seed) {
                        scan.pending.remove(i);
                    }
                }
                RecordKind::Flush => {}
            }
            scan.records += 1;
            at = end;
        }
        scan.truncated = at < buf.len();
        Ok(scan)
    }

    /// Appends one event. No fsync — see the module docs for the
    /// durability argument.
    pub(crate) fn append(
        &mut self,
        kind: RecordKind,
        seed: u64,
        drawn: u64,
        ledger: &PreprocessLedger,
    ) -> Result<()> {
        let mut payload = Vec::with_capacity(PAYLOAD_LEN);
        for v in [
            seed,
            drawn,
            ledger.generated_offline,
            ledger.generated_inline,
            ledger.consumed,
            ledger.available,
            ledger.generation_seconds.to_bits(),
            ledger.base_ots,
            ledger.extended_ots,
            ledger.seed_bytes,
            ledger.expanded_bytes,
            ledger.restored,
        ] {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        let mut rec = Vec::with_capacity(5 + PAYLOAD_LEN + 8);
        rec.extend_from_slice(&(PAYLOAD_LEN as u32).to_le_bytes());
        rec.push(kind as u8);
        rec.extend_from_slice(&payload);
        rec.extend_from_slice(&fnv1a(&rec[4..]).to_le_bytes());
        self.file.write_all(&rec).map_err(|e| store_err(&self.path, "append", e))
    }

    /// Fsyncs the log (graceful drain).
    pub(crate) fn sync(&mut self) -> Result<()> {
        self.file.sync_all().map_err(|e| store_err(&self.path, "sync", e))
    }

    /// The file this store persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "c2pi-store-{}-{}-{name}.bin",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn ledger(consumed: u64) -> PreprocessLedger {
        PreprocessLedger {
            generated_offline: 3,
            consumed,
            generation_seconds: 0.25,
            seed_bytes: 81,
            expanded_bytes: 123_456,
            ..Default::default()
        }
    }

    #[test]
    fn roundtrips_dealt_and_consumed_events() {
        let path = tmp("roundtrip");
        let fp = 0xABCD;
        {
            let (mut store, scan) = MaterialStore::open(&path, fp).unwrap();
            assert_eq!(scan.records, 0);
            store.append(RecordKind::Dealt, 11, 1, &ledger(0)).unwrap();
            store.append(RecordKind::Dealt, 22, 2, &ledger(0)).unwrap();
            store.append(RecordKind::Dealt, 33, 3, &ledger(0)).unwrap();
            store.append(RecordKind::Consumed, 22, 3, &ledger(1)).unwrap();
            store.append(RecordKind::Flush, 0, 3, &ledger(1)).unwrap();
            store.sync().unwrap();
        }
        let (_store, scan) = MaterialStore::open(&path, fp).unwrap();
        assert_eq!(scan.records, 5);
        assert_eq!(scan.pending, vec![11, 33], "consumed seed dropped, order kept");
        assert_eq!(scan.drawn, 3);
        assert_eq!(scan.ledger, ledger(1));
        assert!(!scan.truncated);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = tmp("torn");
        {
            let (mut store, _) = MaterialStore::open(&path, 7).unwrap();
            store.append(RecordKind::Dealt, 5, 1, &ledger(0)).unwrap();
            store.append(RecordKind::Dealt, 6, 2, &ledger(0)).unwrap();
        }
        // Simulate a crash mid-append: a record prefix without its tail.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[96, 0, 0, 0, 1, 42, 42]).unwrap();
        }
        let before = std::fs::metadata(&path).unwrap().len();
        let (_store, scan) = MaterialStore::open(&path, 7).unwrap();
        assert!(scan.truncated);
        assert_eq!(scan.pending, vec![5, 6], "intact prefix fully recovered");
        assert!(std::fs::metadata(&path).unwrap().len() < before, "tail cut off");
        // Reopening after the repair is clean.
        let (_store, scan2) = MaterialStore::open(&path, 7).unwrap();
        assert!(!scan2.truncated);
        assert_eq!(scan2.pending, vec![5, 6]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_record_checksum_cuts_the_log_there() {
        let path = tmp("corrupt");
        {
            let (mut store, _) = MaterialStore::open(&path, 9).unwrap();
            store.append(RecordKind::Dealt, 1, 1, &ledger(0)).unwrap();
            store.append(RecordKind::Dealt, 2, 2, &ledger(0)).unwrap();
        }
        // Flip a byte inside the second record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let second = HEADER_LEN + 5 + PAYLOAD_LEN + 8 + 10;
        bytes[second] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_store, scan) = MaterialStore::open(&path, 9).unwrap();
        assert!(scan.truncated);
        assert_eq!(scan.pending, vec![1], "log ends at the corruption");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fingerprint_mismatch_refuses_to_open() {
        let path = tmp("fp");
        {
            let (mut store, _) = MaterialStore::open(&path, 100).unwrap();
            store.append(RecordKind::Dealt, 1, 1, &ledger(0)).unwrap();
        }
        let err = MaterialStore::open(&path, 101).unwrap_err();
        assert!(matches!(err, PiError::Store(_)), "got {err:?}");
        assert!(err.to_string().contains("different deployment"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn non_store_file_is_rejected() {
        let path = tmp("junk");
        std::fs::write(&path, b"definitely not a material store file, no sir").unwrap();
        assert!(MaterialStore::open(&path, 1).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn store_file_is_owner_only() {
        use std::os::unix::fs::PermissionsExt;
        let path = tmp("perms");
        let _ = MaterialStore::open(&path, 1).unwrap();
        let mode = std::fs::metadata(&path).unwrap().permissions().mode();
        assert_eq!(mode & 0o777, 0o600, "persisted seeds are as sensitive as material");
        std::fs::remove_file(&path).unwrap();
    }
}
