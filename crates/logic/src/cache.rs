//! Memoized two-level minimization and the shared bounded-cache machinery.
//!
//! The set/reset functions derived from state graphs repeat heavily: mirror
//! signals inside one specification (parallel handshakes, pipeline stages)
//! and across the benchmark suite produce identical functions, and
//! minimization dominates synthesis runtime. This module caches minimized
//! covers process-wide, keyed by a **canonical encoding** of the function —
//! its sorted ON and OFF codes — so a hit is independent of the order in
//! which points were derived, and a partially constructed or "poisoned"
//! entry is impossible by construction: values are inserted complete, under
//! a mutex, and are pure functions of their key.
//!
//! Determinism: on a miss the minimizer runs on the *canonicalized* function
//! (ON and OFF sorted), so the cover stored — and every cover ever returned
//! for that key, from any thread, in any order — is the same. This is what
//! makes the parallel synthesis pipeline byte-identical across thread
//! counts even though the cache population order changes.
//!
//! Boundedness: a long-running process (the `nshot-server` service layer in
//! particular) must not grow memory without bound, so the memo table lives
//! in a [`BoundedCache`] — a two-generation *segmented* cache: inserts go
//! into the current generation; when it fills, the previous generation is
//! dropped wholesale and the generations rotate. Hits in the previous
//! generation are promoted, so the working set survives rotation while cold
//! entries age out in at most two generations. Eviction never changes what a
//! lookup *returns* (values are pure functions of their keys), only whether
//! it recomputes — determinism is unaffected by the cap. The same structure
//! backs the server's whole-response cache.

use crate::{espresso, Cover, Function};
use nshot_obs::{Counter, Gauge, Registry};
use nshot_par::FxHashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};

// The cache-statistics struct lives in `nshot-obs` now, shared with the
// server's response cache; re-exported here so `nshot_logic::CacheStats`
// stays a valid name.
pub use nshot_obs::CacheStats;

/// Default entry cap of the global espresso memo table. Generous: a cover
/// entry is tens-to-hundreds of bytes, so the worst case stays in the tens
/// of megabytes, while every workload in the repo fits with room to spare.
pub const DEFAULT_ESPRESSO_CACHE_CAP: usize = 65_536;

/// A bounded map with two-generation segmented ("clock"-style) eviction.
///
/// Capacity is split across two generations of `cap / 2` entries each.
/// Inserts fill the current generation; when it reaches its half-cap, the
/// previous generation is dropped (each dropped entry counts as one
/// eviction) and the full current generation becomes the new previous.
/// Lookups check the current generation first and *promote* hits found in
/// the previous one, so frequently used entries are never more than one
/// rotation from safety. All operations are O(1) amortized and fully
/// deterministic given the operation sequence.
#[derive(Debug)]
pub struct BoundedCache<K, V> {
    half_cap: usize,
    current: FxHashMap<K, V>,
    previous: FxHashMap<K, V>,
    evictions: u64,
}

impl<K: Hash + Eq, V> BoundedCache<K, V> {
    /// A cache holding at most `cap` entries (minimum 2: one per
    /// generation).
    pub fn new(cap: usize) -> Self {
        BoundedCache {
            half_cap: (cap / 2).max(1),
            current: FxHashMap::default(),
            previous: FxHashMap::default(),
            evictions: 0,
        }
    }

    /// Total entry cap (both generations).
    pub fn capacity(&self) -> usize {
        self.half_cap * 2
    }

    /// Look up `key`, promoting a previous-generation hit into the current
    /// generation.
    pub fn get(&mut self, key: &K) -> Option<&V>
    where
        K: Clone,
    {
        // Split borrows force the two-step shape: test membership first,
        // then promote, then return a reference into `current` only.
        if !self.current.contains_key(key) {
            let (k, v) = self.previous.remove_entry(key)?;
            self.rotate_if_full();
            self.current.insert(k, v);
        }
        self.current.get(key)
    }

    /// Insert `key → value` into the current generation, rotating first if
    /// it is full. An existing mapping for `key` is replaced.
    pub fn insert(&mut self, key: K, value: V) {
        if !self.current.contains_key(&key) {
            self.rotate_if_full();
        }
        // The same key may still shadow an older value in the previous
        // generation; drop it so `len` counts live entries once.
        self.previous.remove(&key);
        self.current.insert(key, value);
    }

    fn rotate_if_full(&mut self) {
        if self.current.len() >= self.half_cap {
            self.evictions += self.previous.len() as u64;
            self.previous = std::mem::take(&mut self.current);
        }
    }

    /// Live entries across both generations.
    pub fn len(&self) -> usize {
        self.current.len() + self.previous.len()
    }

    /// `true` when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries dropped by generation rotation since creation/clear.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Drop all entries and reset the eviction counter.
    pub fn clear(&mut self) {
        self.current.clear();
        self.previous.clear();
        self.evictions = 0;
    }
}

/// Handles to the memo table's series in the process-global metrics
/// registry, resolved once. The `stats` op of `nshot-server` and the
/// `metrics` Prometheus exposition both read these — the counters *are*
/// the statistics, not a copy of them.
struct Metrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    entries: Arc<Gauge>,
}

fn metrics() -> &'static Metrics {
    static METRICS: OnceLock<Metrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = Registry::global();
        Metrics {
            hits: r.counter("nshot_espresso_cache_hits_total"),
            misses: r.counter("nshot_espresso_cache_misses_total"),
            evictions: r.counter("nshot_espresso_cache_evictions_total"),
            entries: r.gauge("nshot_espresso_cache_entries"),
        }
    })
}

static CACHE: Mutex<Option<BoundedCache<Vec<u64>, Cover>>> = Mutex::new(None);

/// Test seam: replace the memo table with an empty one of `cap` entries.
/// Counters are preserved; [`reset_cache`] restores the default cap.
#[cfg(test)]
pub(crate) fn set_espresso_cache_cap(cap: usize) {
    *CACHE.lock().expect("cover cache poisoned") = Some(BoundedCache::new(cap));
}

/// Like [`espresso`], but memoized process-wide on the canonical encoding
/// of `f`, in a table of [`DEFAULT_ESPRESSO_CACHE_CAP`] entries.
///
/// On a miss the heuristic minimizer runs on the canonicalized function and
/// the resulting cover is cached; on a hit the cached cover is cloned. The
/// returned cover implements `f` either way, and for a fixed function the
/// result is identical across calls, threads, and thread counts —
/// eviction can only cause recomputation, never a different answer.
pub fn espresso_cached(f: &Function) -> Cover {
    // The full key is stored (not just a hash), so collisions cannot
    // poison the cache.
    let key = f.memo_key();

    if let Some(cover) = CACHE
        .lock()
        .expect("cover cache poisoned")
        .get_or_insert_with(|| BoundedCache::new(DEFAULT_ESPRESSO_CACHE_CAP))
        .get(&key)
        .cloned()
    {
        metrics().hits.inc();
        return cover;
    }

    // Minimize outside the lock (this is the expensive part — holding the
    // mutex here would serialize the whole point of the parallel pipeline).
    // A concurrent miss on the same key just recomputes the same cover.
    let cover = espresso(&f.canonical());
    let m = metrics();
    m.misses.inc();
    {
        let mut guard = CACHE.lock().expect("cover cache poisoned");
        let table = guard.get_or_insert_with(|| BoundedCache::new(DEFAULT_ESPRESSO_CACHE_CAP));
        table.insert(key, cover.clone());
        // Keep the registry's view of the table current while we hold the
        // lock anyway (evictions are monotone, entries are a gauge).
        m.evictions.store(table.evictions());
        m.entries.set(table.len() as u64);
    }
    cover
}

/// Current global hit/miss/eviction counters (read straight from the
/// process-global metrics registry; the eviction counter is refreshed from
/// the table first so `stats` and `metrics` agree).
pub fn cache_stats() -> CacheStats {
    let m = metrics();
    let evictions = CACHE
        .lock()
        .expect("cover cache poisoned")
        .as_ref()
        .map_or(0, BoundedCache::evictions);
    m.evictions.store(evictions);
    CacheStats {
        hits: m.hits.get(),
        misses: m.misses.get(),
        evictions,
    }
}

/// Number of cached covers.
pub fn cache_len() -> usize {
    CACHE
        .lock()
        .expect("cover cache poisoned")
        .as_ref()
        .map_or(0, BoundedCache::len)
}

/// Clear the cache and reset the counters (benchmark isolation).
pub fn reset_cache() {
    let mut guard = CACHE.lock().expect("cover cache poisoned");
    *guard = None;
    let m = metrics();
    m.hits.reset();
    m.misses.reset();
    m.evictions.reset();
    m.entries.set(0);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cache is process-global; serialize the tests that reset it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn toggle(num_vars: usize, on: &[u64], dc: &[u64]) -> Function {
        Function::from_on_dc(num_vars, on, dc)
    }

    #[test]
    fn hit_equals_fresh_run() {
        let _l = TEST_LOCK.lock().unwrap();
        reset_cache();
        let f = toggle(3, &[0b111, 0b110], &[0b001]);
        let fresh = espresso_cached(&f); // miss
        let hit = espresso_cached(&f); // hit
        assert_eq!(fresh, hit);
        assert!(f.is_implemented_by(&hit));
        let stats = cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(cache_len(), 1);
    }

    #[test]
    fn cube_order_does_not_split_entries() {
        let _l = TEST_LOCK.lock().unwrap();
        reset_cache();
        // The same function with the ON cubes derived in opposite orders.
        let a = toggle(4, &[3, 7, 11], &[]);
        let b = toggle(4, &[11, 3, 7], &[]);
        let ca = espresso_cached(&a);
        let cb = espresso_cached(&b);
        assert_eq!(ca, cb, "canonicalization must collapse cube orderings");
        assert_eq!(cache_len(), 1);
        assert_eq!(cache_stats().hits, 1);
    }

    #[test]
    fn distinct_functions_do_not_collide() {
        let _l = TEST_LOCK.lock().unwrap();
        reset_cache();
        // Same ON set, different DC sets — must be distinct entries.
        let a = toggle(3, &[0b101], &[]);
        let b = toggle(3, &[0b101], &[0b100]);
        let ca = espresso_cached(&a);
        let cb = espresso_cached(&b);
        assert!(a.is_implemented_by(&ca));
        assert!(b.is_implemented_by(&cb));
        assert_eq!(cache_len(), 2);
        assert_eq!(cache_stats().misses, 2);
    }

    #[test]
    fn counters_under_concurrent_access() {
        let _l = TEST_LOCK.lock().unwrap();
        reset_cache();
        let functions: Vec<Function> =
            (0..8u64).map(|i| toggle(4, &[i, i + 8], &[])).collect();
        let baseline: Vec<Cover> = functions.iter().map(espresso_cached).collect();
        let before = cache_stats();
        assert_eq!(before.misses, 8);

        // 4 threads × 8 functions, all hits, all equal to the baseline.
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for (f, expect) in functions.iter().zip(&baseline) {
                        assert_eq!(&espresso_cached(f), expect);
                    }
                });
            }
        });
        let after = cache_stats();
        assert_eq!(after.misses, 8, "no recomputation after warm-up");
        assert_eq!(after.hits, before.hits + 4 * 8);
        assert_eq!(cache_len(), 8);
    }

    #[test]
    fn empty_on_set_is_cached_too() {
        let _l = TEST_LOCK.lock().unwrap();
        reset_cache();
        let f = toggle(2, &[], &[1]);
        assert!(espresso_cached(&f).is_empty());
        assert!(espresso_cached(&f).is_empty());
        assert_eq!(cache_stats().hits, 1);
    }

    #[test]
    fn bounded_cache_rotates_and_counts_evictions() {
        let mut c: BoundedCache<u32, u32> = BoundedCache::new(8); // 4 + 4
        for i in 0..4 {
            c.insert(i, i * 10);
        }
        assert_eq!(c.len(), 4);
        assert_eq!(c.evictions(), 0);
        // Fifth insert rotates (previous was empty → 0 evictions yet)…
        for i in 4..8 {
            c.insert(i, i * 10);
        }
        assert_eq!(c.len(), 8);
        // …and the ninth rotates again, dropping generation {0..3}.
        c.insert(8, 80);
        assert_eq!(c.evictions(), 4);
        assert!(c.get(&0).is_none(), "cold entry aged out");
        assert_eq!(c.get(&5), Some(&50), "recent generation survives");
        assert!(c.len() <= c.capacity());
    }

    #[test]
    fn bounded_cache_promotion_survives_rotation() {
        let mut c: BoundedCache<u32, u32> = BoundedCache::new(4); // 2 + 2
        c.insert(1, 100);
        c.insert(2, 200); // current = {1,2}
        c.insert(3, 300); // rotate: previous = {1,2}, current = {3}
        assert_eq!(c.get(&1), Some(&100), "promoted out of previous");
        // 1 now lives in current; the next rotation drops {2} but keeps 1.
        c.insert(4, 400);
        c.insert(5, 500);
        assert!(c.get(&1).is_some() || c.get(&4).is_some());
        assert!(c.len() <= c.capacity());
        assert!(c.evictions() > 0);
    }

    #[test]
    fn bounded_cache_insert_replaces_and_dedupes_generations() {
        let mut c: BoundedCache<u32, u32> = BoundedCache::new(4);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(3, 30); // 1,2 → previous
        c.insert(1, 11); // shadowed copy in previous must be dropped
        assert_eq!(c.get(&1), Some(&11));
        assert_eq!(
            c.len(),
            3,
            "no double-counting of a key present in both generations"
        );
    }

    #[test]
    fn global_cap_bounds_the_memo_table() {
        let _l = TEST_LOCK.lock().unwrap();
        set_espresso_cache_cap(8);
        // 32 distinct functions through a cap-8 table: the table stays
        // bounded, evictions are counted, and every answer is still correct.
        for i in 0..32u64 {
            let f = toggle(6, &[i, i + 32], &[]);
            let c = espresso_cached(&f);
            assert!(f.is_implemented_by(&c));
        }
        assert!(cache_len() <= 8, "cap respected, len {}", cache_len());
        assert!(cache_stats().evictions > 0, "rotation happened");
        // Restore the default-cap table for the other tests.
        reset_cache();
    }
}
