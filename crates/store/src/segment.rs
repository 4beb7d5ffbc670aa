//! On-disk segment format: versioned header plus CRC-framed records.
//!
//! A segment is an append-only file:
//!
//! ```text
//! ┌──────────────────────────── header (16 bytes) ───────────────────────────┐
//! │ magic "NSHOTSTR" (8) │ format_version u32 LE │ segment_id u32 LE         │
//! ├──────────────────────────── record (repeated) ───────────────────────────┤
//! │ key_len u32 LE │ val_len u32 LE │ value_version u32 LE │ key │ value │   │
//! │ crc32 u32 LE over the 12 length/version bytes + key + value              │
//! └──────────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! All integers are little-endian. `format_version` covers the *framing*;
//! `value_version` covers the *payload* encoding and is chosen by the
//! caller, so a store can transparently drop records whose payload format
//! it no longer understands (they are recompiled and rewritten at the
//! current version).
//!
//! Framing version 3 stores both parts raw: `key_len`/`val_len` are the
//! byte counts of the key and value as given. Records are recompilable,
//! so they need not be small. The store is a cache, so older framings
//! are not migrated: a segment whose `format_version` is not
//! [`FORMAT_VERSION`] is ignored like a foreign file and its keys
//! recompile. That includes framing 2, whose bit-31 length flag marked a
//! compressed part; read as raw, such a length would look like a torn tail
//! and get the file truncated.
//!
//! Recovery rules, applied by [`scan`] on every open:
//!
//! * a record whose frame extends past end-of-file is a **torn tail** (a
//!   crash mid-append): the scan reports the offset of the last good
//!   record so the store can truncate the file there, and counts the torn
//!   record as dropped;
//! * a fully framed record whose CRC does not match is **corrupt**: it is
//!   skipped (counted dropped) and the scan resynchronizes at the next
//!   frame boundary — the length fields were plausible, so later records
//!   survive a payload bit flip;
//! * a record with an unexpected `value_version` is **stale**: well-formed
//!   but not indexed, so the caller recompiles it;
//! * a segment with a bad magic or framing version is ignored wholesale.

use nshot_wire::crc32::crc32;
use std::io::{self, Read};
use std::path::Path;

/// Magic bytes opening every segment file.
pub(crate) const MAGIC: &[u8; 8] = b"NSHOTSTR";

/// The one framing version written and read: raw parts.
pub const FORMAT_VERSION: u32 = 3;

/// Segment header length in bytes.
pub const HEADER_LEN: u64 = 16;

/// Fixed part of a record frame before the key bytes.
pub const RECORD_HEADER_LEN: usize = 12;

/// CRC trailer length.
pub(crate) const RECORD_TRAILER_LEN: usize = 4;

/// Upper bound on a single key or value (guards against allocating on a
/// corrupt length field).
pub(crate) const MAX_PART_LEN: u32 = 256 * 1024 * 1024;

/// File name of segment `id` (zero-padded so lexicographic order is id
/// order).
pub(crate) fn file_name(id: u64) -> String {
    format!("seg-{id:08}.log")
}

/// Parse a segment id back out of a file name produced by [`file_name`].
pub(crate) fn parse_file_name(name: &str) -> Option<u64> {
    let id = name.strip_prefix("seg-")?.strip_suffix(".log")?;
    if id.len() == 8 && id.bytes().all(|b| b.is_ascii_digit()) {
        id.parse().ok()
    } else {
        None
    }
}

/// The 16-byte segment header (always the current [`FORMAT_VERSION`]).
pub fn encode_header(segment_id: u64) -> [u8; HEADER_LEN as usize] {
    let mut h = [0u8; HEADER_LEN as usize];
    h[..8].copy_from_slice(MAGIC);
    h[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h[12..16].copy_from_slice(&(segment_id as u32).to_le_bytes());
    h
}

/// One fully framed record, ready to append.
pub fn encode_record(key: &[u8], value: &[u8], value_version: u32) -> Vec<u8> {
    let mut buf = Vec::with_capacity(frame_len(key.len() as u32, value.len() as u32) as usize);
    buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
    buf.extend_from_slice(&(value.len() as u32).to_le_bytes());
    buf.extend_from_slice(&value_version.to_le_bytes());
    buf.extend_from_slice(key);
    buf.extend_from_slice(value);
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Whether a whole record frame's CRC trailer matches its body.
pub(crate) fn crc_ok(frame: &[u8]) -> bool {
    let (body, trailer) = frame.split_at(frame.len() - RECORD_TRAILER_LEN);
    crc32(body).to_le_bytes() == trailer
}

/// Total frame length of a record with a key and value of these lengths.
pub fn frame_len(key_len: u32, val_len: u32) -> u64 {
    RECORD_HEADER_LEN as u64 + u64::from(key_len) + u64::from(val_len) + RECORD_TRAILER_LEN as u64
}

/// Where a live record sits inside a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RecordLocation {
    /// Segment id.
    pub seg: u64,
    /// Byte offset of the record frame (the `key_len` field).
    pub offset: u64,
    /// Total frame length (header + key + value + CRC).
    pub frame_len: u64,
    /// Key length in bytes.
    pub key_len: u32,
    /// Value length in bytes.
    pub val_len: u32,
    /// The record's `value_version` as written.
    pub version: u32,
}

impl RecordLocation {
    /// Decode the length/version fields at the front of `frame`, a record
    /// at `offset` in segment `seg` (at least [`RECORD_HEADER_LEN`] bytes).
    pub(crate) fn from_header(seg: u64, offset: u64, frame: &[u8]) -> RecordLocation {
        let field = |i: usize| u32::from_le_bytes(frame[i..i + 4].try_into().expect("4 bytes"));
        let (key_len, val_len) = (field(0), field(4));
        RecordLocation {
            seg,
            offset,
            frame_len: frame_len(key_len, val_len),
            key_len,
            val_len,
            version: field(8),
        }
    }

    /// Byte range of the value inside the frame.
    pub fn value_range(&self) -> std::ops::Range<usize> {
        let start = RECORD_HEADER_LEN + self.key_len as usize;
        start..start + self.val_len as usize
    }
}

/// What scanning one segment found.
#[derive(Debug, Default)]
pub(crate) struct ScanOutcome {
    /// Well-formed wanted-version records in append order (later entries
    /// for the same key supersede earlier ones).
    pub entries: Vec<(String, RecordLocation)>,
    /// Records that passed framing + CRC at a wanted version.
    pub recovered: u64,
    /// Records lost to torn tails or CRC mismatches.
    pub dropped: u64,
    /// Well-formed records with a `value_version` outside the wanted set.
    pub stale: u64,
    /// When set, the file should be truncated to this length (torn tail or
    /// unframeable remainder).
    pub truncate_to: Option<u64>,
    /// Bytes of the segment considered valid (header + scanned frames).
    pub valid_len: u64,
}

/// Scan a segment file, applying the module's recovery rules. Records
/// whose `value_version` appears in `want_versions` are indexed (the first
/// entry is conventionally the current version, the rest legacy versions
/// still readable); others count as stale. Returns `None` when the file
/// is not a segment of ours at all (bad magic, or a framing version other
/// than [`FORMAT_VERSION`]) — the caller ignores it wholesale.
///
/// # Errors
///
/// Only real I/O errors propagate; corruption is reported in the outcome.
pub(crate) fn scan(
    path: &Path,
    seg_id: u64,
    want_versions: &[u32],
) -> io::Result<Option<ScanOutcome>> {
    let mut buf = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut buf)?;
    if buf.len() < HEADER_LEN as usize || &buf[..8] != MAGIC {
        return Ok(None);
    }
    if buf[8..12] != FORMAT_VERSION.to_le_bytes() {
        return Ok(None);
    }

    let mut out = ScanOutcome::default();
    let mut off = HEADER_LEN as usize;
    while off < buf.len() {
        let remaining = buf.len() - off;
        if remaining < RECORD_HEADER_LEN {
            // Partial frame header: torn tail.
            out.dropped += 1;
            out.truncate_to = Some(off as u64);
            break;
        }
        let loc = RecordLocation::from_header(seg_id, off as u64, &buf[off..]);
        if loc.key_len > MAX_PART_LEN
            || loc.val_len > MAX_PART_LEN
            || loc.frame_len > remaining as u64
        {
            // The frame claims more bytes than exist: either a torn tail
            // (crash mid-append) or a corrupted length field. Both leave
            // the remainder unframeable, so truncate here.
            out.dropped += 1;
            out.truncate_to = Some(off as u64);
            break;
        }
        let frame = &buf[off..off + loc.frame_len as usize];
        off += frame.len();
        if !crc_ok(frame) {
            // Payload corruption inside an intact frame: skip just this
            // record and resynchronize at the next boundary.
            out.dropped += 1;
            continue;
        }
        if !want_versions.contains(&loc.version) {
            out.stale += 1;
            continue;
        }
        // Keys that are not valid UTF-8 cannot have been written by us;
        // count the record corrupt.
        let key = &frame[RECORD_HEADER_LEN..RECORD_HEADER_LEN + loc.key_len as usize];
        match std::str::from_utf8(key) {
            Ok(key) => {
                out.entries.push((key.to_owned(), loc));
                out.recovered += 1;
            }
            Err(_) => out.dropped += 1,
        }
    }
    out.valid_len = out.truncate_to.unwrap_or(buf.len() as u64);
    Ok(Some(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_file(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("nshot-segtest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name)
    }

    fn write_segment(path: &Path, records: &[(&str, &[u8], u32)]) {
        let mut f = std::fs::File::create(path).expect("create");
        f.write_all(&encode_header(7)).expect("header");
        for (k, v, ver) in records {
            f.write_all(&encode_record(k.as_bytes(), v, *ver)).expect("record");
        }
    }

    #[test]
    fn file_names_round_trip() {
        assert_eq!(file_name(3), "seg-00000003.log");
        assert_eq!(parse_file_name("seg-00000003.log"), Some(3));
        assert_eq!(parse_file_name("seg-3.log"), None);
        assert_eq!(parse_file_name("other.log"), None);
    }

    #[test]
    fn clean_segment_scans_fully() {
        let path = temp_file("clean.log");
        write_segment(&path, &[("a", b"alpha", 1), ("b", b"beta", 1), ("a", b"alpha2", 1)]);
        let out = scan(&path, 7, &[1]).expect("io").expect("ours");
        assert_eq!(out.recovered, 3);
        assert_eq!(out.dropped, 0);
        assert_eq!(out.stale, 0);
        assert!(out.truncate_to.is_none());
        assert_eq!(out.entries.len(), 3);
        assert_eq!(out.entries[2].0, "a", "append order preserved");
    }

    #[test]
    fn torn_tail_truncates_to_last_good_record() {
        let path = temp_file("torn.log");
        write_segment(&path, &[("a", b"alpha", 1), ("b", b"beta", 1)]);
        let full = std::fs::metadata(&path).expect("meta").len();
        // Chop 3 bytes off the final record.
        let f = std::fs::OpenOptions::new().write(true).open(&path).expect("open");
        f.set_len(full - 3).expect("truncate");
        let out = scan(&path, 7, &[1]).expect("io").expect("ours");
        assert_eq!(out.recovered, 1);
        assert_eq!(out.dropped, 1);
        let expected_cut = HEADER_LEN + frame_len(1, 5);
        assert_eq!(out.truncate_to, Some(expected_cut));
        assert_eq!(out.entries.len(), 1);
        assert_eq!(out.entries[0].0, "a");
    }

    #[test]
    fn payload_flip_drops_only_that_record() {
        let path = temp_file("flip.log");
        write_segment(&path, &[("a", b"alpha", 1), ("b", b"beta", 1), ("c", b"gamma", 1)]);
        // Flip one byte inside record b's value.
        let rec_a = frame_len(1, 5);
        let flip_at = HEADER_LEN + rec_a + RECORD_HEADER_LEN as u64 + 1 + 2; // inside "beta"
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[flip_at as usize] ^= 0x40;
        std::fs::write(&path, &bytes).expect("write");
        let out = scan(&path, 7, &[1]).expect("io").expect("ours");
        assert_eq!(out.recovered, 2, "a and c survive");
        assert_eq!(out.dropped, 1, "b dropped");
        assert!(out.truncate_to.is_none(), "mid-file corruption does not truncate");
        let keys: Vec<&str> = out.entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["a", "c"]);
    }

    #[test]
    fn stale_version_records_are_counted_not_indexed() {
        let path = temp_file("stale.log");
        write_segment(&path, &[("a", b"old", 1), ("b", b"new", 2)]);
        let out = scan(&path, 7, &[2]).expect("io").expect("ours");
        assert_eq!(out.recovered, 1);
        assert_eq!(out.stale, 1);
        assert_eq!(out.entries[0].0, "b");
    }

    #[test]
    fn legacy_versions_are_indexed_alongside_current() {
        let path = temp_file("legacy.log");
        write_segment(&path, &[("a", b"old", 1), ("b", b"new", 2), ("c", b"older", 7)]);
        let out = scan(&path, 7, &[2, 1]).expect("io").expect("ours");
        assert_eq!(out.recovered, 2);
        assert_eq!(out.stale, 1, "version 7 is outside the wanted set");
        let got: Vec<(&str, u32)> =
            out.entries.iter().map(|(k, loc)| (k.as_str(), loc.version)).collect();
        assert_eq!(got, [("a", 1), ("b", 2)]);
    }

    /// A record as framing 2 wrote a part it compressed: bit 31 of
    /// `val_len` set, the low bits counting the stored bytes.
    fn flagged_record(key: &[u8], stored: &[u8], version: u32) -> Vec<u8> {
        let mut rec = encode_record(key, stored, version);
        rec[7] |= 0x80;
        let body = rec.len() - RECORD_TRAILER_LEN;
        let crc = crc32(&rec[..body]);
        rec[body..].copy_from_slice(&crc.to_le_bytes());
        rec
    }

    #[test]
    fn foreign_file_and_other_framing_versions_are_ignored_wholesale() {
        let path = temp_file("foreign.log");
        std::fs::write(&path, b"not a segment at all").expect("write");
        assert!(scan(&path, 7, &[1]).expect("io").is_none());
        let mut records = encode_record(b"a", b"alpha", 1);
        records.extend_from_slice(&flagged_record(b"b", b"\x05packed", 1));
        for format in [FORMAT_VERSION - 1, FORMAT_VERSION + 1] {
            let path = temp_file(&format!("framing-{format}.log"));
            let mut bytes = encode_header(7).to_vec();
            bytes[8..12].copy_from_slice(&format.to_le_bytes());
            bytes.extend_from_slice(&records);
            std::fs::write(&path, &bytes).expect("write");
            assert!(scan(&path, 7, &[1]).expect("io").is_none(), "framing {format}");
        }
        // Under the current header the flagged length runs past the end of
        // the file: read raw, it would be taken for a torn tail.
        let path = temp_file("flagged.log");
        let mut bytes = encode_header(7).to_vec();
        bytes.extend_from_slice(&records);
        std::fs::write(&path, &bytes).expect("write");
        let out = scan(&path, 7, &[1]).expect("io").expect("ours");
        assert_eq!(out.truncate_to, Some(HEADER_LEN + frame_len(1, 5)));
    }
}
