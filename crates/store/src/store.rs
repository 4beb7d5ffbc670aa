//! The store proper: an index over CRC-framed append-only segments.
//!
//! See the crate docs for the design contract; briefly: [`Store::open`]
//! rebuilds the in-memory index by scanning every segment (applying the
//! recovery rules in [`crate::segment`]), [`Store::put`] appends a framed
//! record and fsyncs per [`FsyncPolicy`], and readers take every live
//! record at once ([`Store::entries`], [`read_entries`]). Boundedness is
//! two generations of segments: when the current generation's live-record
//! count reaches half the cap, the previous generation's files are deleted
//! wholesale and the generations rotate. Nothing is promoted on read, so
//! eviction is first in, first out by put: a record survives a rotation
//! only if it was put again since the last one. Eviction can only cause
//! recompilation, never a wrong answer.

use crate::segment::{
    self, RecordLocation, FORMAT_VERSION, HEADER_LEN, MAX_PART_LEN, RECORD_HEADER_LEN,
    RECORD_TRAILER_LEN,
};
use nshot_obs::{Counter, Gauge, Registry};
use nshot_par::FxHashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// When to fsync the active segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fdatasync` after every append — maximum durability, slowest.
    Always,
    /// `fdatasync` every [`BATCH_FSYNC_EVERY`] appends and on seal/flush —
    /// bounded data-loss window, near-`Never` throughput. The default.
    #[default]
    Batch,
    /// Never fsync explicitly; the OS decides. A crash may lose the tail,
    /// which recovery then truncates.
    Never,
}

/// Appends between fsyncs under [`FsyncPolicy::Batch`].
pub const BATCH_FSYNC_EVERY: usize = 64;

impl FsyncPolicy {
    /// Parse a CLI name.
    ///
    /// # Errors
    ///
    /// A message naming the accepted values.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "batch" => Ok(FsyncPolicy::Batch),
            "never" => Ok(FsyncPolicy::Never),
            other => Err(format!("unknown fsync policy '{other}' (always|batch|never)")),
        }
    }

    /// CLI/wire name.
    pub fn name(&self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Batch => "batch",
            FsyncPolicy::Never => "never",
        }
    }
}

/// Store configuration. [`StoreConfig::new`] gives the production
/// defaults; tests shrink `max_records`/`segment_max_bytes` to force
/// rotation and sealing.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding the segment files (created if absent).
    pub dir: PathBuf,
    /// Fsync policy for appends.
    pub fsync: FsyncPolicy,
    /// Two-generation live-record cap (minimum 2, one per generation).
    pub max_records: usize,
    /// Seal the active segment once it exceeds this many bytes.
    pub segment_max_bytes: u64,
    /// Payload format version written with every record; records carrying
    /// a version that is neither this nor in [`StoreConfig::legacy_versions`]
    /// are dropped (as "stale") on open and transparently recompiled by
    /// the caller.
    pub value_version: u32,
    /// Older payload versions the caller can still decode. Records at
    /// these versions are indexed and read back with their version; new
    /// writes always use `value_version`.
    pub legacy_versions: Vec<u32>,
}

impl StoreConfig {
    /// Defaults: batch fsync, 65 536 records, 8 MiB segments, version 1,
    /// no legacy versions.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Batch,
            max_records: 65_536,
            segment_max_bytes: 8 * 1024 * 1024,
            value_version: 1,
            legacy_versions: Vec::new(),
        }
    }

    /// The versions [`Store::open`] indexes: current first, then legacy.
    pub fn wanted_versions(&self) -> Vec<u32> {
        let mut want = vec![self.value_version];
        for v in &self.legacy_versions {
            if !want.contains(v) {
                want.push(*v);
            }
        }
        want
    }
}

/// Monotone per-store counters (a plain snapshot; the same figures are
/// mirrored to the process-global [`Registry`] as `nshot_store_*` series).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Records appended by `put`.
    pub appends: u64,
    /// Well-formed current-version records found at open.
    pub recovered_records: u64,
    /// Records lost at open to torn tails or CRC mismatches.
    pub dropped_records: u64,
    /// Well-formed records at open with a different value version.
    pub stale_records: u64,
    /// Generation rotations (previous generation deleted wholesale).
    pub compactions: u64,
    /// Live records deleted by rotation.
    pub evictions: u64,
    /// Records that failed CRC verification at read time.
    pub read_corruptions: u64,
}

/// What a store saw over its lifetime — the shutdown summary printed by
/// `nshot-serve --store` and `nshot-batch`.
#[derive(Debug, Clone)]
pub struct StoreReport {
    /// Live records in the index.
    pub records: usize,
    /// Segment files on disk.
    pub segments: usize,
    /// Total bytes across segment files.
    pub bytes: u64,
    /// Final counters.
    pub stats: StoreStats,
}

impl std::fmt::Display for StoreReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "records {}, segments {}, bytes {}, compactions {} \
             (recovered {}, dropped {}, stale {}, evictions {})",
            self.records,
            self.segments,
            self.bytes,
            self.stats.compactions,
            self.stats.recovered_records,
            self.stats.dropped_records,
            self.stats.stale_records,
            self.stats.evictions,
        )
    }
}

/// Handles to the `nshot_store_*` series in the process-global registry.
/// Counters accumulate across every store opened in the process; gauges
/// reflect the most recently mutated store.
struct Metrics {
    appends: Arc<Counter>,
    recovered: Arc<Counter>,
    dropped: Arc<Counter>,
    stale: Arc<Counter>,
    compactions: Arc<Counter>,
    evictions: Arc<Counter>,
    read_corruptions: Arc<Counter>,
    records: Arc<Gauge>,
    segments: Arc<Gauge>,
    bytes: Arc<Gauge>,
}

fn metrics() -> &'static Metrics {
    static METRICS: OnceLock<Metrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = Registry::global();
        Metrics {
            appends: r.counter("nshot_store_appends_total"),
            recovered: r.counter("nshot_store_recovered_records_total"),
            dropped: r.counter("nshot_store_dropped_records_total"),
            stale: r.counter("nshot_store_stale_records_total"),
            compactions: r.counter("nshot_store_compactions_total"),
            evictions: r.counter("nshot_store_evictions_total"),
            read_corruptions: r.counter("nshot_store_read_corruptions_total"),
            records: r.gauge("nshot_store_records"),
            segments: r.gauge("nshot_store_segments"),
            bytes: r.gauge("nshot_store_bytes"),
        }
    })
}

/// A crash-safe, content-addressed, bounded on-disk artifact store.
///
/// Not `Sync`: one owner at a time (the server funnels writes through a
/// dedicated write-behind thread). Opening the same directory from two
/// processes concurrently is unsupported.
#[derive(Debug)]
pub struct Store {
    config: StoreConfig,
    half_cap: usize,
    index: FxHashMap<String, RecordLocation>,
    /// Sealed segments of the previous generation (deleted wholesale at
    /// the next rotation).
    prev_segs: Vec<u64>,
    /// Segments of the current generation; the last one is active.
    cur_segs: Vec<u64>,
    /// Live index entries pointing into the current generation.
    cur_live: usize,
    /// Bytes per live segment (valid prefix for recovered ones).
    seg_bytes: FxHashMap<u64, u64>,
    active: File,
    active_id: u64,
    active_len: u64,
    next_seg_id: u64,
    dirty_appends: usize,
    stats: StoreStats,
}

impl Store {
    /// Open (or create) the store at `config.dir`, rebuilding the index by
    /// scanning every segment and applying the recovery rules: torn tails
    /// are truncated, CRC-corrupt records skipped, stale-version records
    /// dropped for recompilation. All pre-existing segments form the
    /// *previous* generation; a fresh active segment starts the current
    /// one, so a record from before the restart survives the next rotation
    /// only if it is put again first.
    ///
    /// # Errors
    ///
    /// Real I/O failures only (directory creation, segment creation,
    /// unreadable files); corruption is recovered from, not reported as an
    /// error.
    pub fn open(config: StoreConfig) -> io::Result<Store> {
        std::fs::create_dir_all(&config.dir)?;
        let ids = segment_files(&config.dir)?;

        let mut stats = StoreStats::default();
        let mut index: FxHashMap<String, RecordLocation> = FxHashMap::default();
        let mut seg_bytes: FxHashMap<u64, u64> = FxHashMap::default();
        let mut max_id = 0u64;
        let want = config.wanted_versions();
        for (id, path) in &ids {
            max_id = max_id.max(*id);
            let Some(outcome) = segment::scan(path, *id, &want)? else {
                continue; // not one of our segments; leave it alone
            };
            if let Some(cut) = outcome.truncate_to {
                // Torn tail: truncate so future scans (and any external
                // tooling) see only whole records.
                OpenOptions::new().write(true).open(path)?.set_len(cut)?;
            }
            stats.recovered_records += outcome.recovered;
            stats.dropped_records += outcome.dropped;
            stats.stale_records += outcome.stale;
            index.extend(outcome.entries); // last writer wins across id order
            seg_bytes.insert(*id, outcome.valid_len);
        }

        // Prune segments no live record points into (all-stale, all-corrupt
        // or fully superseded): they would never be read again.
        let mut prev_segs = Vec::new();
        for (id, path) in &ids {
            if !seg_bytes.contains_key(id) {
                continue; // foreign file, kept untouched
            }
            if index.values().any(|loc| loc.seg == *id) {
                prev_segs.push(*id);
            } else {
                let _ = std::fs::remove_file(path);
                seg_bytes.remove(id);
            }
        }

        let active_id = max_id + 1;
        let (active, active_len) = create_segment(&config.dir, active_id, config.fsync)?;
        seg_bytes.insert(active_id, active_len);

        let m = metrics();
        m.recovered.add(stats.recovered_records);
        m.dropped.add(stats.dropped_records);
        m.stale.add(stats.stale_records);

        let store = Store {
            half_cap: (config.max_records / 2).max(1),
            config,
            index,
            prev_segs,
            cur_segs: vec![active_id],
            cur_live: 0,
            seg_bytes,
            active,
            active_id,
            active_len,
            next_seg_id: active_id + 1,
            dirty_appends: 0,
            stats,
        };
        store.refresh_gauges();
        Ok(store)
    }

    /// Live records.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` when no records are live.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether `key` has a live record (no I/O, no counter).
    pub fn contains(&self, key: &str) -> bool {
        self.index.contains_key(key)
    }

    /// Current counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// The shutdown summary.
    pub fn report(&self) -> StoreReport {
        StoreReport {
            records: self.index.len(),
            segments: self.seg_bytes.len(),
            bytes: self.seg_bytes.values().sum(),
            stats: self.stats,
        }
    }

    /// Store `value` under `key`, replacing any existing record. The
    /// record is CRC-framed, appended to the active segment (sealing it
    /// first if over the size threshold) and fsynced per policy; the
    /// current generation rotates first if it is full.
    ///
    /// # Errors
    ///
    /// I/O failures appending or fsyncing; oversized keys/values are
    /// `InvalidInput`.
    pub fn put(&mut self, key: &str, value: &[u8]) -> io::Result<()> {
        if key.len() as u64 > u64::from(MAX_PART_LEN)
            || value.len() as u64 > u64::from(MAX_PART_LEN)
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "key or value exceeds the 256 MiB framing limit",
            ));
        }
        if !self.in_current(key) {
            self.rotate_if_full()?;
        }
        self.append(key, value)
    }

    /// Every live `(key, value)` pair, sorted by key — the warm-start scan.
    /// Reads never rewrite anything; records failing their read-time CRC
    /// check (corrupted since open) are invalidated and skipped.
    pub fn entries(&mut self) -> Vec<(String, Vec<u8>)> {
        self.entries_versioned()
            .into_iter()
            .map(|(key, _, value)| (key, value))
            .collect()
    }

    /// Like [`Store::entries`], but carrying each record's `value_version`
    /// so a caller holding legacy versions can pick the right payload
    /// decoder (and rewrite legacy records at the current version).
    pub fn entries_versioned(&mut self) -> Vec<(String, u32, Vec<u8>)> {
        let mut keys: Vec<String> = self.index.keys().cloned().collect();
        keys.sort_unstable();
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            let loc = self.index[&key];
            match read_record(&self.config.dir, &loc) {
                Some(value) => out.push((key, loc.version, value)),
                None => self.invalidate(&key, &loc),
            }
        }
        out
    }

    /// Fsync the active segment regardless of policy.
    ///
    /// # Errors
    ///
    /// The underlying `fdatasync` failure.
    pub fn flush(&mut self) -> io::Result<()> {
        self.active.sync_data()?;
        self.dirty_appends = 0;
        Ok(())
    }

    fn path_of(&self, seg: u64) -> PathBuf {
        self.config.dir.join(segment::file_name(seg))
    }

    fn in_current(&self, key: &str) -> bool {
        self.index
            .get(key)
            .is_some_and(|loc| self.cur_segs.contains(&loc.seg))
    }

    /// Drop an index entry whose on-disk record failed verification.
    fn invalidate(&mut self, key: &str, loc: &RecordLocation) {
        if self.cur_segs.contains(&loc.seg) {
            self.cur_live -= 1;
        }
        self.index.remove(key);
        self.stats.read_corruptions += 1;
        metrics().read_corruptions.inc();
        self.refresh_gauges();
    }

    /// Append one framed record at the current payload version to the
    /// active segment (sealing first if it is over the size threshold) and
    /// index it.
    fn append(&mut self, key: &str, value: &[u8]) -> io::Result<()> {
        let frame = segment::encode_record(key.as_bytes(), value, self.config.value_version);
        if self.active_len > HEADER_LEN
            && self.active_len + frame.len() as u64 > self.config.segment_max_bytes
        {
            self.seal_and_start_segment()?;
        }
        let offset = self.active_len;
        self.active.write_all(&frame)?;
        self.active_len += frame.len() as u64;
        self.seg_bytes.insert(self.active_id, self.active_len);

        let loc = RecordLocation::from_header(self.active_id, offset, &frame);
        let replaced_in_cur = self
            .index
            .insert(key.to_owned(), loc)
            .is_some_and(|old| self.cur_segs.contains(&old.seg));
        if !replaced_in_cur {
            self.cur_live += 1;
        }
        self.stats.appends += 1;
        metrics().appends.inc();

        self.dirty_appends += 1;
        match self.config.fsync {
            FsyncPolicy::Always => self.flush()?,
            FsyncPolicy::Batch if self.dirty_appends >= BATCH_FSYNC_EVERY => self.flush()?,
            FsyncPolicy::Batch | FsyncPolicy::Never => {}
        }
        self.refresh_gauges();
        Ok(())
    }

    /// Two-generation rotation: once the current generation holds half the
    /// cap, the previous generation's files are deleted wholesale (dropping
    /// whatever still lives only there) and the generations rotate around
    /// a fresh active segment.
    fn rotate_if_full(&mut self) -> io::Result<()> {
        if self.cur_live < self.half_cap {
            return Ok(());
        }
        let doomed = std::mem::take(&mut self.prev_segs);
        let before = self.index.len();
        self.index.retain(|_, loc| !doomed.contains(&loc.seg));
        let evicted = (before - self.index.len()) as u64;
        for seg in &doomed {
            let _ = std::fs::remove_file(self.path_of(*seg));
            self.seg_bytes.remove(seg);
        }
        self.seal_and_start_segment()?;
        // Everything written so far moves to the previous generation; the
        // just-created active segment alone is the new current one.
        let mut cur = std::mem::replace(&mut self.cur_segs, vec![self.active_id]);
        cur.pop(); // the new active segment is not part of the old generation
        self.prev_segs = cur;
        self.cur_live = 0;
        self.stats.compactions += 1;
        self.stats.evictions += evicted;
        let m = metrics();
        m.compactions.inc();
        m.evictions.add(evicted);
        self.refresh_gauges();
        Ok(())
    }

    /// Seal the active segment (flushing it durable unless policy is
    /// `Never`) and open the next one.
    fn seal_and_start_segment(&mut self) -> io::Result<()> {
        if self.config.fsync != FsyncPolicy::Never {
            self.flush()?;
        }
        let id = self.next_seg_id;
        self.next_seg_id += 1;
        let (file, len) = create_segment(&self.config.dir, id, self.config.fsync)?;
        self.active = file;
        self.active_id = id;
        self.active_len = len;
        self.seg_bytes.insert(id, len);
        self.cur_segs.push(id);
        Ok(())
    }

    fn refresh_gauges(&self) {
        let m = metrics();
        m.records.set(self.index.len() as u64);
        m.segments.set(self.seg_bytes.len() as u64);
        m.bytes.set(self.seg_bytes.values().sum());
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        // Best-effort durability on the way out…
        if self.config.fsync != FsyncPolicy::Never {
            let _ = self.flush();
        }
        // …and no litter: an active segment that never received a record
        // (e.g. a read-only warm-start open) is removed again.
        if self.active_len == HEADER_LEN
            && !self.index.values().any(|loc| loc.seg == self.active_id)
        {
            let _ = std::fs::remove_file(self.path_of(self.active_id));
        }
    }
}

/// Segment files in `dir`, in id order, whatever their contents
/// ([`segment::scan`] decides which are ours). A missing directory has none.
fn segment_files(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let read = match std::fs::read_dir(dir) {
        Ok(read) => read,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut ids = Vec::new();
    for entry in read {
        let entry = entry?;
        if let Some(id) = entry.file_name().to_str().and_then(segment::parse_file_name) {
            ids.push((id, entry.path()));
        }
    }
    ids.sort_unstable_by_key(|(id, _)| *id);
    Ok(ids)
}

/// Read the record at `loc` back from `dir` and verify it end to end:
/// seek, check the CRC, slice out the value. `None` on any I/O failure or
/// mismatch — the segment may have been rotated away or damaged since the
/// scan — and the caller treats the record as gone.
fn read_record(dir: &Path, loc: &RecordLocation) -> Option<Vec<u8>> {
    let mut file = File::open(dir.join(segment::file_name(loc.seg))).ok()?;
    file.seek(SeekFrom::Start(loc.offset)).ok()?;
    let mut frame = vec![0u8; loc.frame_len as usize];
    file.read_exact(&mut frame).ok()?;
    if !segment::crc_ok(&frame) {
        return None;
    }
    Some(frame[loc.value_range()].to_vec())
}

/// Create segment file `id` with its header; fsync the file (and,
/// best-effort, the directory so the new name is durable) unless the
/// policy is `Never`.
fn create_segment(dir: &Path, id: u64, fsync: FsyncPolicy) -> io::Result<(File, u64)> {
    let path = dir.join(segment::file_name(id));
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&path)?;
    file.write_all(&segment::encode_header(id))?;
    if fsync != FsyncPolicy::Never {
        file.sync_data()?;
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok((file, HEADER_LEN))
}

const _: () = {
    // Compile-time sanity: the frame layout constants agree.
    assert!(RECORD_HEADER_LEN == 12);
    assert!(RECORD_TRAILER_LEN == 4);
    assert!(FORMAT_VERSION == 3);
};

/// Read every live `(key, value)` pair from a store directory **without
/// becoming a writer**: no tail truncation, no segment pruning, no active
/// segment — the directory's bytes are untouched. Last writer (highest
/// segment id, latest offset) wins per key; torn tails, CRC-corrupt and
/// stale-version records are skipped exactly as [`Store::open`] would drop
/// them. Output is sorted by key, like [`Store::entries`].
///
/// This is the warm path for shared-nothing shard backends: any number of
/// processes can scan one directory concurrently while (at most) one
/// writer owns it — the writer only ever *appends* to its active segment
/// and deletes whole sealed files, so a concurrent scan sees either a
/// complete record or a skippable partial one, never a torn mix.
///
/// # Errors
///
/// Real I/O failures only (unreadable directory or file); corruption and a
/// missing directory (`NotFound` → empty) are not errors.
pub fn read_entries(dir: &Path, value_version: u32) -> io::Result<Vec<(String, Vec<u8>)>> {
    Ok(read_entries_with(dir, &[value_version])?
        .into_iter()
        .map(|(key, _, value)| (key, value))
        .collect())
}

/// [`read_entries`] accepting several payload versions at once — the warm
/// path for a reader migrating across a `value_version` bump. Each entry
/// carries the version its record was written at so the caller can pick
/// the right payload decoder. Versions not listed are skipped exactly as
/// [`Store::open`] would drop them as stale.
///
/// Each segment is read and checksummed once: values come from the bytes
/// the scan verified.
///
/// # Errors
///
/// Real I/O failures only; corruption and a missing directory are not
/// errors.
pub fn read_entries_with(
    dir: &Path,
    versions: &[u32],
) -> io::Result<Vec<(String, u32, Vec<u8>)>> {
    let mut index: FxHashMap<String, (u32, Vec<u8>)> = FxHashMap::default();
    for (id, path) in segment_files(dir)? {
        let Some(outcome) = segment::scan(&path, id, versions)? else {
            continue; // not one of our segments
        };
        for (key, loc) in outcome.entries {
            let frame = &outcome.bytes[loc.offset as usize..][..loc.frame_len as usize];
            // Last writer wins across id order.
            index.insert(key, (loc.version, frame[loc.value_range()].to_vec()));
        }
    }

    let mut entries: Vec<(String, u32, Vec<u8>)> = index
        .into_iter()
        .map(|(key, (version, value))| (key, version, value))
        .collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "nshot-store-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_config(dir: &Path) -> StoreConfig {
        StoreConfig {
            fsync: FsyncPolicy::Never,
            ..StoreConfig::new(dir)
        }
    }

    /// The live value under `key`, read the way the server reads: one bulk
    /// scan.
    fn value_of(s: &mut Store, key: &str) -> Option<Vec<u8>> {
        s.entries()
            .into_iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    #[test]
    fn put_survives_reopen() {
        let dir = temp_dir("reopen");
        {
            let mut s = Store::open(small_config(&dir)).expect("open");
            s.put("alpha", b"payload a").expect("put");
            s.put("beta", b"payload b").expect("put");
            assert_eq!(
                value_of(&mut s, "alpha").as_deref(),
                Some(&b"payload a"[..])
            );
            assert_eq!(s.len(), 2);
        }
        let mut s = Store::open(small_config(&dir)).expect("reopen");
        assert_eq!(s.len(), 2);
        assert_eq!(s.stats().recovered_records, 2);
        assert_eq!(value_of(&mut s, "beta").as_deref(), Some(&b"payload b"[..]));
        assert_eq!(value_of(&mut s, "missing"), None);
        assert!(!s.contains("missing"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overwrite_keeps_latest_across_reopen() {
        let dir = temp_dir("overwrite");
        {
            let mut s = Store::open(small_config(&dir)).expect("open");
            s.put("k", b"v1").expect("put");
            s.put("k", b"v2").expect("put");
            assert_eq!(s.len(), 1);
            assert_eq!(value_of(&mut s, "k").as_deref(), Some(&b"v2"[..]));
        }
        let mut s = Store::open(small_config(&dir)).expect("reopen");
        assert_eq!(value_of(&mut s, "k").as_deref(), Some(&b"v2"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_entries_is_read_only_and_sees_latest() {
        let dir = temp_dir("readonly");
        {
            let mut s = Store::open(small_config(&dir)).expect("open");
            s.put("alpha", b"v1").expect("put");
            s.put("alpha", b"v2").expect("put");
            s.put("beta", b"payload b").expect("put");
            s.flush().expect("flush");

            // Concurrent scan while the writer still owns the directory.
            let scanned = read_entries(&dir, s.config.value_version).expect("scan");
            assert_eq!(
                scanned,
                vec![
                    ("alpha".to_string(), b"v2".to_vec()),
                    ("beta".to_string(), b"payload b".to_vec()),
                ]
            );
        }

        let before: Vec<_> = {
            let mut names: Vec<_> = std::fs::read_dir(&dir)
                .expect("read_dir")
                .map(|e| e.expect("entry").file_name())
                .collect();
            names.sort();
            names
        };
        let scanned = read_entries(&dir, StoreConfig::new(&dir).value_version).expect("scan");
        assert_eq!(scanned.len(), 2);
        let after: Vec<_> = {
            let mut names: Vec<_> = std::fs::read_dir(&dir)
                .expect("read_dir")
                .map(|e| e.expect("entry").file_name())
                .collect();
            names.sort();
            names
        };
        assert_eq!(before, after, "read_entries must not touch the directory");

        // A missing directory is an empty store, not an error.
        let none = read_entries(&dir.join("nope"), 1).expect("missing dir");
        assert!(none.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_seal_at_size_threshold() {
        let dir = temp_dir("seal");
        let config = StoreConfig {
            segment_max_bytes: 64, // every record overflows it
            ..small_config(&dir)
        };
        let mut s = Store::open(config).expect("open");
        for i in 0..4 {
            s.put(&format!("key-{i}"), &[b'x'; 48]).expect("put");
        }
        let report = s.report();
        assert!(report.segments >= 4, "sealing produced {} segments", report.segments);
        assert_eq!(report.records, 4);
        let entries = s.entries();
        assert_eq!(entries.len(), 4);
        assert!(entries.iter().all(|(_, v)| v.as_slice() == [b'x'; 48]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_bounds_the_store_and_counts_evictions() {
        let dir = temp_dir("rotate");
        let config = StoreConfig {
            max_records: 4, // half-cap 2
            ..small_config(&dir)
        };
        let mut s = Store::open(config).expect("open");
        for i in 0..12 {
            s.put(&format!("key-{i:02}"), b"v").expect("put");
        }
        let st = s.stats();
        assert!(st.compactions > 0, "rotation never happened");
        assert!(st.evictions > 0, "nothing evicted");
        assert!(s.len() <= 4, "live records {} exceed cap", s.len());
        // The newest insert always survives.
        assert!(s.contains("key-11"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_is_fifo_by_put() {
        // Half-cap 2: a generation rotates once it holds two live records.
        let dir = temp_dir("fifo");
        let mut s = Store::open(StoreConfig {
            max_records: 4,
            ..small_config(&dir)
        })
        .expect("open");
        s.put("kept", b"kept value").expect("put");
        s.put("dropped", b"dropped value").expect("put");
        s.put("new-0", b"x").expect("put"); // rotation 1: both go previous
        assert_eq!(s.stats().compactions, 1);
        s.put("kept", b"kept value").expect("re-put"); // back into current

        // Reading is not putting: a bulk scan rescues nothing.
        assert_eq!(
            value_of(&mut s, "dropped").as_deref(),
            Some(&b"dropped value"[..])
        );
        s.put("new-1", b"x").expect("put"); // rotation 2: previous deleted
        assert_eq!(s.stats().compactions, 2);
        assert_eq!(s.stats().evictions, 1);
        assert!(!s.contains("dropped"), "a record not put again ages out");
        assert!(s.contains("kept"), "a record put again survives");
        drop(s);
        let on_disk = read_entries(&dir, StoreConfig::new(&dir).value_version).expect("scan");
        let keys: Vec<&str> = on_disk.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["kept", "new-0", "new-1"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_value_version_is_recompiled_not_served() {
        let dir = temp_dir("version");
        {
            let mut s = Store::open(StoreConfig { value_version: 1, ..small_config(&dir) })
                .expect("open");
            s.put("k", b"old-format").expect("put");
        }
        let mut s = Store::open(StoreConfig {
            value_version: 2,
            ..small_config(&dir)
        })
        .expect("reopen");
        assert_eq!(
            value_of(&mut s, "k"),
            None,
            "stale-format record must not be served"
        );
        assert_eq!(s.stats().stale_records, 1);
        s.put("k", b"new-format").expect("put");
        assert_eq!(value_of(&mut s, "k").as_deref(), Some(&b"new-format"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_versions_are_served_as_themselves() {
        let dir = temp_dir("legacy");
        {
            let mut s = Store::open(StoreConfig { value_version: 1, ..small_config(&dir) })
                .expect("open v1");
            s.put("json-record", b"{\"code\":200}").expect("put");
        }
        // A v2 store that still understands v1 payloads.
        let cfg = StoreConfig {
            value_version: 2,
            legacy_versions: vec![1],
            max_records: 4,
            ..small_config(&dir)
        };
        let mut s = Store::open(cfg.clone()).expect("reopen");
        assert_eq!(s.stats().recovered_records, 1);
        assert_eq!(s.stats().stale_records, 0);
        // Byte-identical read-back across the version boundary, at the
        // record's own payload version.
        assert_eq!(
            s.entries_versioned(),
            vec![("json-record".to_string(), 1, b"{\"code\":200}".to_vec())]
        );
        s.put("json-record", b"binary-now").expect("rewrite");
        assert_eq!(
            s.entries_versioned(),
            vec![("json-record".to_string(), 2, b"binary-now".to_vec())]
        );
        drop(s);
        let with_versions = read_entries_with(&dir, &[2, 1]).expect("scan");
        assert_eq!(
            with_versions,
            vec![("json-record".to_string(), 2, b"binary-now".to_vec())]
        );
        // A reader without the legacy list sees only current records.
        let mut s = Store::open(StoreConfig {
            legacy_versions: vec![],
            ..cfg
        })
        .expect("strict");
        assert_eq!(
            value_of(&mut s, "json-record").as_deref(),
            Some(&b"binary-now"[..])
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_are_sorted_and_complete() {
        let dir = temp_dir("entries");
        let mut s = Store::open(small_config(&dir)).expect("open");
        for key in ["zeta", "alpha", "mid"] {
            s.put(key, key.as_bytes()).expect("put");
        }
        let entries = s.entries();
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["alpha", "mid", "zeta"]);
        assert!(entries.iter().all(|(k, v)| k.as_bytes() == v.as_slice()));
        // A bulk scan writes nothing.
        assert_eq!(s.stats().appends, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn all_fsync_policies_round_trip() {
        for policy in [FsyncPolicy::Always, FsyncPolicy::Batch, FsyncPolicy::Never] {
            let dir = temp_dir(policy.name());
            {
                let mut s = Store::open(StoreConfig {
                    fsync: policy,
                    ..StoreConfig::new(&dir)
                })
                .expect("open");
                s.put("k", b"v").expect("put");
                s.flush().expect("flush");
            }
            let mut s = Store::open(StoreConfig { fsync: policy, ..StoreConfig::new(&dir) })
                .expect("reopen");
            assert_eq!(
                value_of(&mut s, "k").as_deref(),
                Some(&b"v"[..]),
                "policy {}",
                policy.name()
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert!(FsyncPolicy::parse("nope").is_err());
        assert_eq!(FsyncPolicy::parse("batch"), Ok(FsyncPolicy::Batch));
    }

    #[test]
    fn read_only_open_leaves_no_empty_segment_behind() {
        let dir = temp_dir("litter");
        {
            let mut s = Store::open(small_config(&dir)).expect("open");
            s.put("k", b"v").expect("put");
        }
        {
            let _s = Store::open(small_config(&dir)).expect("warm open");
            // No writes at all.
        }
        let segments = std::fs::read_dir(&dir)
            .expect("dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_str().is_some_and(|n| n.starts_with("seg-")))
            .count();
        assert_eq!(segments, 1, "read-only open littered a segment");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
