//! Append-only segment files — the on-disk unit of the durable store tier.
//!
//! A segment is a magic header followed by length-prefixed, checksummed
//! entries:
//!
//! ```text
//! "SILSEG1\n"                                    8-byte file magic
//! [u32 payload_len (LE)] [u64 fnv1a64 (LE)]      12-byte entry header
//! [u8 namespace] [u64 key (LE)] [body ...]       payload (payload_len bytes)
//! ...                                            next entry
//! ```
//!
//! The checksum ([`sil_lang::hash::fnv1a`]) covers the whole payload
//! (namespace byte, key, body).
//! Recovery ([`scan`]) reads entries front to back and stops at the first
//! one that is torn (header or payload runs past end of file) or corrupt
//! (checksum mismatch): everything before that point is intact by
//! construction of an append-only log, everything after it is untrusted
//! and reported as dropped.  Scanning never panics on arbitrary bytes —
//! a flipped bit in a length field simply reads as a torn entry.

use sil_lang::hash::fnv1a;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// First bytes of every segment file.
pub const MAGIC: &[u8; 8] = b"SILSEG1\n";

/// Bytes of the per-entry header: `u32` payload length + `u64` checksum.
pub const ENTRY_HEADER_BYTES: u64 = 12;

/// Bytes of the payload prefix: namespace byte + `u64` key.
pub const PAYLOAD_PREFIX_BYTES: u64 = 9;

/// Where one intact entry lives inside a segment file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryRef {
    /// Namespace tag byte: 0 for a whole-program entry, the only kind the
    /// durable tier indexes (1 was a summary table until PR 23).
    pub namespace: u8,
    /// The content-addressed key.
    pub key: u64,
    /// Offset of the entry header from the start of the file.
    pub offset: u64,
    /// Length of the payload (namespace byte + key + body).
    pub payload_len: u32,
}

impl EntryRef {
    /// Total bytes the entry occupies on disk (header + payload).
    pub fn stored_bytes(&self) -> u64 {
        ENTRY_HEADER_BYTES + self.payload_len as u64
    }

    /// Length of the body (payload minus the namespace/key prefix).
    pub fn body_len(&self) -> u64 {
        (self.payload_len as u64).saturating_sub(PAYLOAD_PREFIX_BYTES)
    }
}

/// What a recovery scan of one segment found.
#[derive(Debug, Clone, Default)]
pub struct ScanReport {
    /// Every intact entry, in file order.
    pub entries: Vec<EntryRef>,
    /// Length of the valid prefix: the first byte past the last intact
    /// entry (the magic alone for an empty or unreadable-magic file).
    pub valid_len: u64,
    /// Bytes past the valid prefix that were discarded as torn/corrupt.
    pub dropped_bytes: u64,
    /// Whether anything had to be discarded.
    pub dropped: bool,
}

/// Scan a segment file, trusting only the intact prefix.
///
/// Returns the entries of the longest valid prefix and how many trailing
/// bytes (a torn final write, a corrupt entry and everything after it)
/// must be discarded.  A file whose magic does not match is treated as
/// having no valid prefix at all.
pub fn scan(path: &Path) -> io::Result<ScanReport> {
    let bytes = std::fs::read(path)?;
    let mut report = ScanReport::default();
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        report.dropped_bytes = bytes.len() as u64;
        report.dropped = report.dropped_bytes > 0;
        return Ok(report);
    }
    let mut offset = MAGIC.len() as u64;
    let total = bytes.len() as u64;
    while offset < total {
        let Some(entry) = read_entry_at(&bytes, offset) else {
            break;
        };
        offset += entry.stored_bytes();
        report.entries.push(entry);
    }
    report.valid_len = offset;
    report.dropped_bytes = total - offset;
    report.dropped = report.dropped_bytes > 0;
    Ok(report)
}

/// Decode and verify the entry starting at `offset`, or `None` when the
/// bytes there are torn or corrupt.
fn read_entry_at(bytes: &[u8], offset: u64) -> Option<EntryRef> {
    let start = usize::try_from(offset).ok()?;
    let header = bytes.get(start..start + ENTRY_HEADER_BYTES as usize)?;
    let payload_len = u32::from_le_bytes(header[0..4].try_into().unwrap());
    let stored = u64::from_le_bytes(header[4..12].try_into().unwrap());
    if (payload_len as u64) < PAYLOAD_PREFIX_BYTES {
        return None;
    }
    let payload_start = start + ENTRY_HEADER_BYTES as usize;
    let payload = bytes.get(payload_start..payload_start + payload_len as usize)?;
    if fnv1a(payload) != stored {
        return None;
    }
    Some(EntryRef {
        namespace: payload[0],
        key: u64::from_le_bytes(payload[1..9].try_into().unwrap()),
        offset,
        payload_len,
    })
}

/// Read back one entry's body, re-verifying its checksum (bytes may have
/// rotted since the recovery scan).  `None` when the entry no longer
/// verifies.
pub fn read_body(file: &mut File, entry: &EntryRef) -> io::Result<Option<Vec<u8>>> {
    file.seek(SeekFrom::Start(entry.offset))?;
    let mut buf = vec![0u8; entry.stored_bytes() as usize];
    if file.read_exact(&mut buf).is_err() {
        return Ok(None);
    }
    let stored = u64::from_le_bytes(buf[4..12].try_into().unwrap());
    let payload = &buf[ENTRY_HEADER_BYTES as usize..];
    if fnv1a(payload) != stored || payload[0] != entry.namespace {
        return Ok(None);
    }
    Ok(Some(payload[PAYLOAD_PREFIX_BYTES as usize..].to_vec()))
}

/// An open segment being appended to.
#[derive(Debug)]
pub struct SegmentWriter {
    file: File,
    path: PathBuf,
    len: u64,
}

impl SegmentWriter {
    /// Create a fresh segment (truncating anything at `path`) and write
    /// its magic.
    pub fn create(path: &Path) -> io::Result<SegmentWriter> {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .read(true)
            .truncate(true)
            .open(path)?;
        file.write_all(MAGIC)?;
        Ok(SegmentWriter {
            file,
            path: path.to_path_buf(),
            len: MAGIC.len() as u64,
        })
    }

    /// Reopen an existing segment for appending, truncating it to
    /// `valid_len` first (recovery discards the torn/corrupt tail by
    /// physically cutting it off, so the next append extends an intact
    /// prefix).
    pub fn recover(path: &Path, valid_len: u64) -> io::Result<SegmentWriter> {
        let file = OpenOptions::new().write(true).read(true).open(path)?;
        file.set_len(valid_len.max(MAGIC.len() as u64))?;
        let mut writer = SegmentWriter {
            file,
            path: path.to_path_buf(),
            len: valid_len.max(MAGIC.len() as u64),
        };
        if valid_len < MAGIC.len() as u64 {
            // The magic itself was unreadable: rewrite it.
            writer.file.seek(SeekFrom::Start(0))?;
            writer.file.write_all(MAGIC)?;
        }
        writer.file.seek(SeekFrom::Start(writer.len))?;
        Ok(writer)
    }

    /// Append one entry, returning where it landed.
    pub fn append(&mut self, namespace: u8, key: u64, body: &[u8]) -> io::Result<EntryRef> {
        let payload_len = PAYLOAD_PREFIX_BYTES as usize + body.len();
        let payload_len_u32 = u32::try_from(payload_len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "entry body too large"))?;
        let mut payload = Vec::with_capacity(payload_len);
        payload.push(namespace);
        payload.extend_from_slice(&key.to_le_bytes());
        payload.extend_from_slice(body);
        let mut record = Vec::with_capacity(ENTRY_HEADER_BYTES as usize + payload_len);
        record.extend_from_slice(&payload_len_u32.to_le_bytes());
        record.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        record.extend_from_slice(&payload);
        self.file.write_all(&record)?;
        let entry = EntryRef {
            namespace,
            key,
            offset: self.len,
            payload_len: payload_len_u32,
        };
        self.len += record.len() as u64;
        Ok(entry)
    }

    /// Force everything appended so far onto stable storage.
    pub fn sync(&self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Bytes written so far (magic included).
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len <= MAGIC.len() as u64
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_segment(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("silseg-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn round_trip_entries() {
        let path = temp_segment("round-trip.sil");
        let mut writer = SegmentWriter::create(&path).unwrap();
        let a = writer.append(0, 7, b"alpha").unwrap();
        let b = writer.append(1, 9, b"").unwrap();
        drop(writer);

        let report = scan(&path).unwrap();
        assert!(!report.dropped);
        assert_eq!(report.entries, vec![a, b]);
        let mut file = File::open(&path).unwrap();
        assert_eq!(read_body(&mut file, &a).unwrap().unwrap(), b"alpha");
        assert_eq!(read_body(&mut file, &b).unwrap().unwrap(), b"");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_recovery_truncates() {
        let path = temp_segment("torn.sil");
        let mut writer = SegmentWriter::create(&path).unwrap();
        writer.append(0, 1, b"kept").unwrap();
        let valid = writer.len();
        drop(writer);
        // Simulate a crash mid-append: half an entry header.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&[0x20, 0x00]).unwrap();
        drop(file);

        let report = scan(&path).unwrap();
        assert!(report.dropped);
        assert_eq!(report.entries.len(), 1);
        assert_eq!(report.valid_len, valid);
        assert_eq!(report.dropped_bytes, 2);

        let mut writer = SegmentWriter::recover(&path, report.valid_len).unwrap();
        writer.append(0, 2, b"after").unwrap();
        drop(writer);
        let report = scan(&path).unwrap();
        assert!(!report.dropped);
        assert_eq!(report.entries.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_means_no_valid_prefix() {
        let path = temp_segment("bad-magic.sil");
        std::fs::write(&path, b"NOTSEG!\ngarbage").unwrap();
        let report = scan(&path).unwrap();
        assert!(report.dropped);
        assert!(report.entries.is_empty());
        assert_eq!(report.valid_len, 0);
        std::fs::remove_file(&path).unwrap();
    }
}
