//! `nshot-store`: crash-safe, content-addressed, on-disk store for
//! synthesis artifacts.
//!
//! The serving layer and the parallel pipeline memoize in RAM; every
//! process restart starts cold. This crate is a cache underneath them:
//! synthesis responses keyed by the canonical `(options|spec)` encoding
//! (see `nshot_logic::request_key`) are written to append-only log
//! segments and survive crashes, restarts and partial writes.
//!
//! Two paths use it. Writers ([`Store::put`]: the server's write-behind
//! thread, `nshot-batch`) append; `nshot-batch` also asks
//! [`Store::contains`] to skip work. Readers take every live record in one
//! bulk scan at start-up ([`Store::entries_versioned`], or the read-only
//! [`read_entries_with`] for shard backends sharing a directory). There
//! are no point reads.
//!
//! # On-disk format
//!
//! A store is a directory of segment files `seg-NNNNNNNN.log`. Each file
//! starts with a 16-byte header (magic `NSHOTSTR`, format version, segment
//! id) followed by records framed as
//!
//! ```text
//! u32 key_len | u32 val_len | u32 value_version | key | value | u32 crc32
//! ```
//!
//! (all little-endian; the CRC covers header + key + value). Appends are
//! fsynced per [`FsyncPolicy`].
//!
//! Framing version 3 stores keys and values raw: a record can always be
//! recompiled, so it need not be small. The checksum is `nshot-wire`'s
//! `crc32::crc32`, shared with the wire frames.
//! [`StoreConfig::legacy_versions`] lets a reader keep serving older
//! *payload* versions byte-identically while new writes use the current
//! one.
//!
//! # Recovery
//!
//! [`Store::open`] rebuilds the index by scanning every segment:
//!
//! * a **torn tail** (frame extending past EOF, from a crash mid-write) is
//!   truncated away; every record before it survives;
//! * an intact frame with a **CRC mismatch** (bit rot, torn overwrite) is
//!   skipped individually — scanning resyncs at the next frame boundary;
//! * a record with a **stale `value_version`** is dropped so the caller
//!   transparently recompiles it in the current format;
//! * a file without our magic or current framing version is ignored
//!   wholesale and left on disk (the store is a cache: its keys recompile);
//! * a **missing segment** simply contributes nothing — the index only
//!   ever references files that exist.
//!
//! Corruption is therefore never an error and never served: at worst a
//! record is recompiled.
//!
//! # Boundedness
//!
//! Segments belong to two generations: when the current generation's
//! live-record count reaches half of [`StoreConfig::max_records`], the
//! previous generation's files are deleted wholesale and the generations
//! rotate. Reads never promote a record, so eviction is first in, first
//! out by put: a record lives through one rotation, and through a second
//! only if it was put again in between.

mod segment;
mod store;

pub use segment::{
    encode_header, encode_record, frame_len, FORMAT_VERSION, HEADER_LEN, RECORD_HEADER_LEN,
};
pub use store::{
    read_entries, read_entries_with, FsyncPolicy, Store, StoreConfig, StoreReport, StoreStats,
    BATCH_FSYNC_EVERY,
};
