//! Fault-injection tests for `nshot-store` crash recovery.
//!
//! Three corruption scenarios a real deployment will eventually hit — a
//! crash mid-append (torn tail), silent bit rot (payload flip) and a lost
//! file (deleted newest segment) — each injected byte-surgically into a
//! store written by the public API. `Store::open` must recover every
//! surviving record, never panic, never serve a corrupt artifact, and
//! account for the damage in both its own stats and the process-global
//! `nshot_store_recovered_records_total` / `nshot_store_dropped_records_total`
//! counter pair.

use nshot::store::{
    encode_header, encode_record, frame_len, read_entries, FsyncPolicy, Store, StoreConfig,
    FORMAT_VERSION, HEADER_LEN, RECORD_HEADER_LEN,
};
use nshot::wire::crc32::crc32;
use nshot_obs::Registry;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// The global-registry counters are process-wide; serialize the tests that
/// assert on their deltas.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "nshot-recovery-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path) -> StoreConfig {
    StoreConfig {
        // `Always` so every record is on disk before we corrupt the files.
        fsync: FsyncPolicy::Always,
        ..StoreConfig::new(dir)
    }
}

/// Write `keys` (each with a distinctive 64-byte payload) and close.
fn seed(dir: &Path, keys: &[&str]) {
    let mut store = Store::open(config(dir)).expect("seed open");
    for key in keys {
        store.put(key, &payload(key)).expect("seed put");
    }
}

fn payload(key: &str) -> Vec<u8> {
    key.bytes().cycle().take(64).collect()
}

/// The single data segment a fresh seed run leaves behind.
fn only_segment(dir: &Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read store dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-"))
        })
        .collect();
    assert_eq!(segs.len(), 1, "seed should leave exactly one segment");
    segs.pop().expect("one segment")
}

fn global(name: &str) -> u64 {
    Registry::global().counter_value(name)
}

/// The live value under `key`, read the way the server reads a store: one
/// bulk scan.
fn value_of(store: &mut Store, key: &str) -> Option<Vec<u8>> {
    store
        .entries()
        .into_iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// Every key must round-trip; every corrupted key must miss — never panic,
/// never return damaged bytes.
fn assert_survivors(store: &mut Store, alive: &[&str], dead: &[&str]) {
    let entries = store.entries();
    let value = |key: &str| {
        entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_slice())
    };
    for key in alive {
        assert_eq!(
            value(key),
            Some(payload(key).as_slice()),
            "surviving record '{key}' must read back intact"
        );
    }
    for key in dead {
        assert_eq!(value(key), None, "'{key}' was corrupted and must miss");
    }
}

#[test]
fn torn_tail_is_truncated_and_survivors_recovered() {
    let _guard = lock();
    let dir = temp_dir("torn");
    seed(&dir, &["alpha", "beta", "gamma"]);

    // Chop the last record's trailer short: a crash mid-append.
    let seg = only_segment(&dir);
    let len = std::fs::metadata(&seg).expect("metadata").len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&seg)
        .expect("open segment")
        .set_len(len - 7)
        .expect("truncate");

    let recovered_before = global("nshot_store_recovered_records_total");
    let dropped_before = global("nshot_store_dropped_records_total");
    let mut store = Store::open(config(&dir)).expect("recovery open");

    assert_eq!(store.stats().recovered_records, 2);
    assert_eq!(store.stats().dropped_records, 1);
    assert_eq!(store.len(), 2);
    assert_survivors(&mut store, &["alpha", "beta"], &["gamma"]);
    assert_eq!(global("nshot_store_recovered_records_total"), recovered_before + 2);
    assert_eq!(global("nshot_store_dropped_records_total"), dropped_before + 1);

    // The torn bytes are gone from disk: the segment now ends exactly at
    // the last whole record.
    let expected = HEADER_LEN + frame_len(5, 64) + frame_len(4, 64);
    assert_eq!(std::fs::metadata(&seg).expect("metadata").len(), expected);

    // The recovered store is fully writable again.
    store.put("gamma", &payload("gamma")).expect("re-put");
    assert_eq!(value_of(&mut store, "gamma"), Some(payload("gamma")));
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_payload_byte_drops_only_that_record() {
    let _guard = lock();
    let dir = temp_dir("flip");
    seed(&dir, &["alpha", "beta", "gamma"]);

    // Flip one byte inside the *middle* record's value: bit rot that the
    // length framing alone would never notice.
    let seg = only_segment(&dir);
    let mut bytes = std::fs::read(&seg).expect("read segment");
    let rec_alpha = frame_len(5, 64);
    let offset = (HEADER_LEN + rec_alpha) as usize + RECORD_HEADER_LEN + "beta".len() + 3;
    bytes[offset] ^= 0x40;
    std::fs::write(&seg, &bytes).expect("write corrupted segment");

    let recovered_before = global("nshot_store_recovered_records_total");
    let dropped_before = global("nshot_store_dropped_records_total");
    let mut store = Store::open(config(&dir)).expect("recovery open");

    // The scan resyncs at the next frame: only "beta" is lost.
    assert_eq!(store.stats().recovered_records, 2);
    assert_eq!(store.stats().dropped_records, 1);
    assert_survivors(&mut store, &["alpha", "gamma"], &["beta"]);
    assert_eq!(global("nshot_store_recovered_records_total"), recovered_before + 2);
    assert_eq!(global("nshot_store_dropped_records_total"), dropped_before + 1);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deleted_newest_segment_loses_only_its_records() {
    let _guard = lock();
    let dir = temp_dir("missing");
    // Two generations on disk: "old" records in segment 1, then a second
    // session adds "new" records in segment 2.
    seed(&dir, &["old-a", "old-b"]);
    {
        let mut store = Store::open(config(&dir)).expect("second session");
        store.put("new-a", &payload("new-a")).expect("put");
        store.put("new-b", &payload("new-b")).expect("put");
        assert_eq!(store.len(), 4);
    }

    // Lose the newest segment file wholesale.
    let mut segs: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    segs.sort();
    assert!(segs.len() >= 2, "expected at least two segments");
    std::fs::remove_file(segs.last().expect("newest")).expect("delete newest");

    let mut store = Store::open(config(&dir)).expect("recovery open");
    // The index only ever references files that exist: the old generation
    // is fully recovered, the lost one simply contributes nothing.
    assert_eq!(store.stats().recovered_records, 2);
    assert_eq!(store.len(), 2);
    assert_survivors(&mut store, &["old-a", "old-b"], &["new-a", "new-b"]);

    // Lost keys are recompilable: a fresh put round-trips.
    store.put("new-a", &payload("new-a")).expect("re-put");
    assert_eq!(value_of(&mut store, "new-a"), Some(payload("new-a")));
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn all_three_faults_at_once_still_recover() {
    let _guard = lock();
    // The faults compose: one store with a bit-flipped record in an old
    // segment, a deleted middle segment, and a torn tail on the newest.
    let dir = temp_dir("compound");
    seed(&dir, &["s1-a", "s1-b"]);
    {
        let mut store = Store::open(config(&dir)).expect("session 2");
        store.put("s2-a", &payload("s2-a")).expect("put");
    }
    {
        let mut store = Store::open(config(&dir)).expect("session 3");
        store.put("s3-a", &payload("s3-a")).expect("put");
        store.put("s3-b", &payload("s3-b")).expect("put");
    }

    let mut segs: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    segs.sort();
    assert_eq!(segs.len(), 3);
    // Fault 1: flip a byte in segment 1's first record ("s1-a").
    let mut bytes = std::fs::read(&segs[0]).expect("read");
    let off = HEADER_LEN as usize + RECORD_HEADER_LEN + "s1-a".len() + 3;
    bytes[off] ^= 0x01;
    std::fs::write(&segs[0], &bytes).expect("write");
    // Fault 2: delete segment 2 ("s2-a").
    std::fs::remove_file(&segs[1]).expect("delete");
    // Fault 3: tear segment 3's tail ("s3-b").
    let len = std::fs::metadata(&segs[2]).expect("meta").len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&segs[2])
        .expect("open")
        .set_len(len - 3)
        .expect("truncate");

    let mut store = Store::open(config(&dir)).expect("compound recovery");
    assert_eq!(store.stats().recovered_records, 2, "s1-b and s3-a survive");
    assert_eq!(store.stats().dropped_records, 2, "s1-a flipped, s3-b torn");
    assert_survivors(
        &mut store,
        &["s1-b", "s3-a"],
        &["s1-a", "s2-a", "s3-b"],
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The payload-migration path: a store directory holding JSON-era payloads
/// (value version 1) opened by a binary-era store (value version 2, legacy
/// `[1]`). Reads must be byte-identical across payload versions and
/// recovery counters exact. Compaction then leaves only what was put since:
/// a legacy record put again at the current version survives, one never
/// put again ages out with the fabricated segment.
#[test]
fn mixed_legacy_and_binary_records_read_back_and_compact_to_binary() {
    let _guard = lock();
    let dir = temp_dir("migrate");
    std::fs::create_dir_all(&dir).expect("mkdir");
    // Fabricate what a pre-upgrade deployment leaves on disk: a segment of
    // JSON records at payload version 1.
    let json_a: &[u8] = br#"{"code":200,"status":"ok","blif":".names a b\n1 1\n"}"#;
    let json_b: &[u8] = br#"{"code":200,"status":"ok","blif":".names c d\n0 1\n"}"#;
    let mut seg1 = Vec::new();
    seg1.extend_from_slice(&encode_header(1));
    seg1.extend_from_slice(&encode_record(b"legacy-a", json_a, 1));
    seg1.extend_from_slice(&encode_record(b"legacy-b", json_b, 1));
    std::fs::write(dir.join("seg-00000001.log"), &seg1).expect("write legacy segment");

    let recovered_before = global("nshot_store_recovered_records_total");
    let dropped_before = global("nshot_store_dropped_records_total");
    let cfg = StoreConfig {
        value_version: 2,
        legacy_versions: vec![1],
        max_records: 4, // half-cap 2: a handful of puts triggers rotation
        ..config(&dir)
    };
    let mut store = Store::open(cfg.clone()).expect("mixed open");
    assert_eq!(store.stats().recovered_records, 2);
    assert_eq!(store.stats().dropped_records, 0);
    assert_eq!(store.stats().stale_records, 0);
    assert_eq!(global("nshot_store_recovered_records_total"), recovered_before + 2);
    assert_eq!(global("nshot_store_dropped_records_total"), dropped_before);

    // Binary-era writes land at version 2 alongside the legacy records, and
    // reads are byte-identical across versions.
    let binary_a: &[u8] = b"\x01\x02binary payload\x00";
    store.put("binary-a", binary_a).expect("put");
    assert_eq!(
        store.entries_versioned(),
        vec![
            ("binary-a".to_string(), 2, binary_a.to_vec()),
            ("legacy-a".to_string(), 1, json_a.to_vec()),
            ("legacy-b".to_string(), 1, json_b.to_vec()),
        ]
    );

    // legacy-a is recompiled and put again at the current version; legacy-b
    // is not. Fill the current generation until rotation deletes the
    // legacy segment.
    let binary_legacy_a: &[u8] = b"legacy-a, binary now";
    store.put("legacy-a", binary_legacy_a).expect("re-put");
    store.put("binary-b", b"more binary").expect("put");
    store.put("binary-c", b"even more").expect("put");
    assert!(store.stats().compactions >= 1, "rotation must have happened");
    assert!(store.contains("legacy-a"), "a record put again survives");
    assert!(
        !store.contains("legacy-b"),
        "a legacy record never put again ages out"
    );
    assert_eq!(
        value_of(&mut store, "legacy-a").as_deref(),
        Some(binary_legacy_a)
    );
    drop(store);

    // After compaction every segment left on disk is a current-framing file
    // the store wrote itself: the fabricated one is gone.
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("read dir") {
        let path = entry.expect("entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("").to_owned();
        if !name.starts_with("seg-") {
            continue;
        }
        let bytes = std::fs::read(&path).expect("read segment");
        let format = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        assert_eq!(format, FORMAT_VERSION, "{name} must be current framing after compaction");
        checked += 1;
    }
    assert!(checked > 0, "compaction left no segments to check");

    // A reopen serves every survivor byte-identically, all at version 2.
    let mut store = Store::open(cfg).expect("reopen");
    let versions: Vec<u32> = store
        .entries_versioned()
        .iter()
        .map(|(_, v, _)| *v)
        .collect();
    assert_eq!(versions, [2, 2, 2, 2]);
    assert_eq!(
        value_of(&mut store, "legacy-a").as_deref(),
        Some(binary_legacy_a)
    );
    assert_eq!(value_of(&mut store, "binary-a").as_deref(), Some(binary_a));
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A segment file with `records` under a header that claims framing
/// version `format`.
fn segment_bytes(id: u64, format: u32, records: &[(&str, &[u8], u32)]) -> Vec<u8> {
    let mut bytes = encode_header(id).to_vec();
    bytes[8..12].copy_from_slice(&format.to_le_bytes());
    for (key, value, version) in records {
        bytes.extend_from_slice(&encode_record(key.as_bytes(), value, *version));
    }
    bytes
}

/// A record as framing 2 wrote a value it compressed: bit 31 of `val_len`
/// set, the low bits counting the stored bytes.
fn flagged_record(key: &[u8], stored: &[u8], version: u32) -> Vec<u8> {
    let mut rec = encode_record(key, stored, version);
    rec[7] |= 0x80;
    let body = rec.len() - 4;
    let crc = crc32(&rec[..body]);
    rec[body..].copy_from_slice(&crc.to_le_bytes());
    rec
}

/// The writer (`Store::open`) and the read-only warm path (`read_entries`)
/// apply one set of recovery rules: over a directory holding every kind of
/// damage both serve exactly the same bytes. Segments in another framing
/// version are not migrated: neither reader serves from them, and both
/// leave the files on disk byte for byte, even where the previous
/// framing's compressed-part flag would read as a torn tail.
#[test]
fn both_readers_agree_on_a_damaged_directory() {
    let _guard = lock();
    let dir = temp_dir("agree");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let big = b".names a b c\n110 1\n101 1\n".repeat(20);

    // Segment 1: a superseded key, a record whose CRC trailer is flipped,
    // a stale payload version, and a survivor.
    let mut seg1 = segment_bytes(1, FORMAT_VERSION, &[("superseded", b"old", 2)]);
    let mut flipped = encode_record(b"flipped", b"rotten", 2);
    *flipped.last_mut().expect("crc byte") ^= 0x01;
    seg1.extend_from_slice(&flipped);
    seg1.extend_from_slice(&encode_record(b"stale", b"payload v1", 1));
    seg1.extend_from_slice(&encode_record(b"keep-a", b"alpha", 2));
    std::fs::write(dir.join("seg-00000001.log"), &seg1).expect("write seg 1");

    // Segment 2: the superseding write, a large survivor, then a torn tail.
    let mut seg2 = segment_bytes(
        2,
        FORMAT_VERSION,
        &[("superseded", b"new", 2), ("keep-b", &big, 2)],
    );
    let torn = encode_record(b"torn", b"half written", 2);
    seg2.extend_from_slice(&torn[..torn.len() - 5]);
    std::fs::write(dir.join("seg-00000002.log"), &seg2).expect("write seg 2");

    // Segments 3 and 4 claim the framing versions either side of the
    // current one; segment 3 ends in a record whose value length has bit 31
    // set. Segment 5 is not a segment at all.
    let mut older = segment_bytes(3, FORMAT_VERSION - 1, &[("from-old", b"old", 2)]);
    older.extend_from_slice(&flagged_record(b"keep-a", b"\x05packed", 2));
    let other_framings = [
        ("seg-00000003.log", older),
        (
            "seg-00000004.log",
            segment_bytes(
                4,
                FORMAT_VERSION + 1,
                &[("from-new", b"new", 2), ("keep-b", b"y", 2)],
            ),
        ),
    ];
    for (name, bytes) in &other_framings {
        std::fs::write(dir.join(name), bytes).expect("write other framing");
    }
    std::fs::write(dir.join("seg-00000005.log"), b"not a segment at all").expect("foreign");

    let expected = vec![
        ("keep-a".to_string(), b"alpha".to_vec()),
        ("keep-b".to_string(), big.clone()),
        ("superseded".to_string(), b"new".to_vec()),
    ];
    let scanned = read_entries(&dir, 2).expect("read-only scan");
    assert_eq!(scanned, expected);

    let cfg = StoreConfig {
        value_version: 2,
        fsync: FsyncPolicy::Never,
        ..StoreConfig::new(&dir)
    };
    let mut store = Store::open(cfg).expect("writer open");
    assert_eq!(store.stats().recovered_records, 4);
    assert_eq!(store.stats().dropped_records, 2, "flipped CRC and torn tail");
    assert_eq!(store.stats().stale_records, 1);
    assert_eq!(store.entries(), scanned, "the two readers must agree byte for byte");
    drop(store);

    // The writer truncated the torn tail; the read-only scan still agrees.
    assert_eq!(read_entries(&dir, 2).expect("rescan"), expected);
    for (name, bytes) in &other_framings {
        let on_disk = std::fs::read(dir.join(name)).expect("other framing left on disk");
        assert_eq!(&on_disk, bytes, "{name} must be left untouched");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
