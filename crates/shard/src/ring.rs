//! Consistent-hash ring over backend indices.
//!
//! The ring places `vnodes` virtual points per backend on a `u64` circle
//! and routes a request key to the backend owning the first point at or
//! after the key's hash. Both hashes come from the repo's deterministic
//! [`FxHasher`] — no per-process seed — so every front process, thread,
//! and restart computes the *same* placement for the same topology. That
//! determinism is what makes shard-local caches effective: a key always
//! lands on the shard whose espresso memo and response cache already saw
//! it.
//!
//! Virtual nodes bound the disruption of resizing: going from `n` to
//! `n + 1` backends moves only the keys whose ring interval the new
//! backend's points capture — about `K/(n+1)` of `K` keys — and every
//! moved key moves *to* the new backend, never between survivors (see the
//! property tests).

use nshot_par::FxHasher;
use std::hash::Hasher;

/// Virtual points per backend. High enough that per-backend load spreads
/// within a few percent of uniform; low enough that building and searching
/// the ring stays trivial (`n · 64` points, binary search per request).
pub const DEFAULT_VNODES: usize = 64;

fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// An immutable consistent-hash ring for `backends` shards.
#[derive(Debug, Clone)]
pub struct HashRing {
    backends: usize,
    /// Sorted `(point, backend)` pairs; ties broken by backend index so
    /// two colliding points still order deterministically.
    points: Vec<(u64, u32)>,
}

impl HashRing {
    /// Build the ring for `backends` shards with `vnodes` points each
    /// (`0` uses [`DEFAULT_VNODES`]). A zero-backend ring is legal and
    /// routes nothing.
    pub fn new(backends: usize, vnodes: usize) -> HashRing {
        let vnodes = if vnodes == 0 { DEFAULT_VNODES } else { vnodes };
        let mut points = Vec::with_capacity(backends * vnodes);
        for b in 0..backends {
            for v in 0..vnodes {
                // The point identity is the textual `backend/vnode` pair —
                // stable under any future change to integer widths.
                let point = hash_bytes(format!("nshot-shard/{b}/{v}").as_bytes());
                points.push((point, b as u32));
            }
        }
        points.sort_unstable();
        HashRing { backends, points }
    }

    /// Number of backends the ring routes across.
    pub fn backends(&self) -> usize {
        self.backends
    }

    /// The backend index owning `key` (the canonical
    /// `nshot_logic::request_key` encoding). `None` only for an empty
    /// ring.
    pub fn shard_for(&self, key: &str) -> Option<u32> {
        if self.points.is_empty() {
            return None;
        }
        let h = hash_bytes(key.as_bytes());
        // First point clockwise from the key's hash, wrapping at the top.
        let idx = self.points.partition_point(|&(p, _)| p < h);
        let (_, backend) = self.points[idx % self.points.len()];
        Some(backend)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| format!("nshot|heuristic|0|blif|true|.inputs r{i}\n"))
            .collect()
    }

    #[test]
    fn placement_is_deterministic_across_threads() {
        let keys = keys(512);
        let baseline: Vec<Option<u32>> = {
            let ring = HashRing::new(4, 0);
            keys.iter().map(|k| ring.shard_for(k)).collect()
        };
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let keys = keys.clone();
                std::thread::spawn(move || {
                    // Each thread builds its own ring — placement must not
                    // depend on which thread (or process) built it.
                    let ring = HashRing::new(4, 0);
                    keys.iter().map(|k| ring.shard_for(k)).collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("thread"), baseline);
        }
    }

    #[test]
    fn all_backends_receive_traffic() {
        let ring = HashRing::new(4, 0);
        let mut counts = [0usize; 4];
        for k in keys(4096) {
            counts[ring.shard_for(&k).expect("routed") as usize] += 1;
        }
        for (b, &n) in counts.iter().enumerate() {
            // Uniform would be 1024; vnode placement should keep every
            // backend within a loose factor of it.
            assert!(n > 300, "backend {b} starved: {n}/4096");
        }
    }

    #[test]
    fn adding_a_shard_moves_only_a_fraction_and_only_to_the_new_shard() {
        let keys = keys(4096);
        for n in [1usize, 2, 3, 4, 7] {
            let old = HashRing::new(n, 0);
            let new = HashRing::new(n + 1, 0);
            let mut moved = 0;
            for k in &keys {
                let a = old.shard_for(k).expect("routed");
                let b = new.shard_for(k).expect("routed");
                if a != b {
                    moved += 1;
                    // Disruption discipline: a moved key may only land on
                    // the shard that joined, never hop between survivors.
                    assert_eq!(
                        b,
                        n as u32,
                        "key moved {a}→{b} when shard {n} joined"
                    );
                }
            }
            let expected = keys.len() / (n + 1);
            assert!(
                moved <= expected * 2,
                "{n}→{} shards moved {moved} keys (expected ≈{expected})",
                n + 1
            );
            assert!(moved > 0, "a new shard must take some keys");
        }
    }

    #[test]
    fn removing_a_shard_reassigns_only_its_keys() {
        let keys = keys(4096);
        // Removing the *last* backend is the inverse of adding it, so the
        // same bound holds with old/new swapped.
        let big = HashRing::new(5, 0);
        let small = HashRing::new(4, 0);
        for k in &keys {
            let a = big.shard_for(k).expect("routed");
            let b = small.shard_for(k).expect("routed");
            if a != 4 {
                assert_eq!(a, b, "surviving shard's key must not move");
            }
        }
    }

    #[test]
    fn empty_ring_routes_nothing() {
        assert_eq!(HashRing::new(0, 0).shard_for("k"), None);
    }
}
