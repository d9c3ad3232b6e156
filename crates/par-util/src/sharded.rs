//! A sharded, insert-once concurrent memo table.
//!
//! The labeling pipeline memoizes pure functions (`ST`, lowest common
//! parents, `SV`) and the discovery front-end memoizes canonical codes
//! of bit-packed candidate subgraphs; in both cases the results are
//! recomputed identically by every thread. One global `RwLock<HashMap>`
//! serializes all writers during cache warm-up — the hottest phase of a
//! parallel run — so the map is split into shards, each behind its own
//! lock, selected by key hash.
//! Values are computed *outside* any lock and inserted with first-writer
//! wins (`entry().or_insert`): concurrent computes waste a little work
//! but, being pure, always agree, so reads are deterministic regardless
//! of thread interleaving.
//!
//! ## Poisoning
//!
//! The shards use `std::sync::RwLock`, whose guards poison the lock if
//! a holder panics. Because every entry is a memoized *pure* value,
//! a poisoned shard carries no irreplaceable state: the recovery path
//! ([`ShardedCache::poison_shard`] documents how tests poison one)
//! clears the poison flag and discards the shard's entries, and every
//! later lookup simply recomputes — first-writer-wins means the rebuilt
//! entries are identical. A panicking compute closure never poisons at
//! all, since computes run outside the lock.

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher, Hash};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Number of shards; a power of two so shard selection is a mask.
const SHARDS: usize = 16;

type Shard<K, V> = RwLock<HashMap<K, V>>;

/// Sharded concurrent memo table for a pure function of `K`.
pub struct ShardedCache<K, V> {
    shards: Vec<Shard<K, V>>,
    hasher: BuildHasherDefault<DefaultHasher>,
}

impl<K: Hash + Eq, V: Copy> Default for ShardedCache<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Hash + Eq, V: Copy> ShardedCache<K, V> {
    /// Empty cache.
    pub fn new() -> Self {
        ShardedCache {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            hasher: BuildHasherDefault::default(),
        }
    }

    fn shard(&self, key: &K) -> &Shard<K, V> {
        let h = self.hasher.hash_one(key) as usize;
        &self.shards[h & (SHARDS - 1)]
    }

    /// Read-lock a shard, recovering it first if a previous holder
    /// panicked (see the module docs on why recovery is safe here).
    fn read_shard<'a>(&'a self, shard: &'a Shard<K, V>) -> RwLockReadGuard<'a, HashMap<K, V>> {
        for _ in 0..2 {
            if let Ok(guard) = shard.read() {
                return guard;
            }
            Self::recover(shard);
        }
        // Poisoned again between recovery and re-acquisition: the
        // half-written state was already discarded, so reading through
        // the poison is sound.
        shard.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Write-lock a shard, recovering it first if poisoned.
    fn write_shard<'a>(&'a self, shard: &'a Shard<K, V>) -> RwLockWriteGuard<'a, HashMap<K, V>> {
        for _ in 0..2 {
            if let Ok(guard) = shard.write() {
                return guard;
            }
            Self::recover(shard);
        }
        shard.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Discard a poisoned shard: clear the poison flag and drop its
    /// entries. Entries are memoized pure values inserted first-writer
    /// wins, so clearing loses nothing but warm-cache work — later
    /// lookups recompute and re-insert byte-identical values.
    fn recover(shard: &Shard<K, V>) {
        shard.clear_poison();
        match shard.write() {
            Ok(mut guard) => guard.clear(),
            Err(poisoned) => {
                shard.clear_poison();
                poisoned.into_inner().clear();
            }
        }
    }

    /// Cached value for `key`, if present.
    pub fn get(&self, key: &K) -> Option<V> {
        let shard = self.shard(key);
        self.read_shard(shard).get(key).copied()
    }

    /// The memoized value of `compute(key)`: a cache hit returns the
    /// stored value; a miss runs `compute` outside the lock and inserts
    /// the result unless another thread got there first (whose value is
    /// then returned — identical for a pure `compute`).
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        let shard = self.shard(&key);
        if let Some(&v) = self.read_shard(shard).get(&key) {
            return v;
        }
        let v = compute();
        *self.write_shard(shard).entry(key).or_insert(v)
    }

    /// Fault-injection support: poison the shard holding `key` by
    /// panicking while its write guard is held (the panic is caught
    /// right here and never escapes). The next operation touching the
    /// shard takes the recovery path.
    pub fn poison_shard(&self, key: &K) {
        let shard = self.shard(key);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = shard.write().unwrap_or_else(PoisonError::into_inner);
            std::panic::panic_any(ShardPoisonInjection);
        }));
        debug_assert!(result.is_err(), "the injection closure always panics");
        drop(result);
    }

    /// Total number of cached entries (diagnostics).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| self.read_shard(s).len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Panic payload used by [`ShardedCache::poison_shard`], so the caught
/// injection is distinguishable from a real panic in a debugger.
struct ShardPoisonInjection;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoizes_and_counts() {
        let cache: ShardedCache<(u32, u32), f64> = ShardedCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.get(&(1, 2)), None);
        let mut calls = 0;
        let v = cache.get_or_insert_with((1, 2), || {
            calls += 1;
            0.5
        });
        assert_eq!(v, 0.5);
        let v = cache.get_or_insert_with((1, 2), || {
            calls += 1;
            0.9
        });
        assert_eq!(v, 0.5, "first insert wins");
        assert_eq!(calls, 1, "hit takes the read fast path");
        assert_eq!(cache.get(&(1, 2)), Some(0.5));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn keys_spread_over_shards() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        for k in 0..1000 {
            cache.get_or_insert_with(k, || k * 2);
        }
        assert_eq!(cache.len(), 1000);
        for k in 0..1000 {
            assert_eq!(cache.get(&k), Some(k * 2));
        }
    }

    #[test]
    fn shared_across_threads() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let cache = &cache;
                s.spawn(move || {
                    for k in 0..256 {
                        assert_eq!(cache.get_or_insert_with(k, || k + 1), k + 1);
                        let _ = t;
                    }
                });
            }
        });
        assert_eq!(cache.len(), 256);
    }

    #[test]
    fn panicking_compute_closure_does_not_poison() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new();
        cache.get_or_insert_with(1, || 10);
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_insert_with(2, || panic!("compute blew up"))
        }));
        assert!(attempt.is_err());
        // Computes run outside the lock, so the cache is fully usable
        // and the earlier entry survives.
        assert_eq!(cache.get(&1), Some(10));
        assert_eq!(cache.get_or_insert_with(2, || 20), 20);
    }

    #[test]
    fn poisoned_shard_recovers_on_get() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        for k in 0..64 {
            cache.get_or_insert_with(k, || k + 100);
        }
        cache.poison_shard(&3);
        // The shard holding 3 was discarded; the lookup recovers the
        // lock and reports a (correct) miss instead of panicking.
        assert_eq!(cache.get(&3), None);
        // Other shards are untouched: at least one key must still hit.
        assert!((0..64).any(|k| cache.get(&k) == Some(k + 100)));
        // First-writer-wins rebuild: the recomputed value is identical.
        assert_eq!(cache.get_or_insert_with(3, || 103), 103);
        assert_eq!(cache.get(&3), Some(103));
    }

    #[test]
    fn poisoned_shard_recovers_on_insert_and_len() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        cache.get_or_insert_with(7, || 700);
        cache.poison_shard(&7);
        assert_eq!(cache.get_or_insert_with(7, || 700), 700, "rebuilt entry");
        assert_eq!(cache.get(&7), Some(700));
        assert_eq!(cache.len(), 1, "len traverses every shard post-recovery");
    }

    #[test]
    fn concurrent_use_during_poisoning_stays_consistent() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new();
        let cache = &cache;
        std::thread::scope(|s| {
            s.spawn(move || {
                for _ in 0..16 {
                    cache.poison_shard(&1);
                }
            });
            for t in 0..2 {
                s.spawn(move || {
                    for k in 0..512u32 {
                        let v = cache.get_or_insert_with(k, || k * 3);
                        assert_eq!(v, k * 3, "worker {t}: value is always the pure result");
                    }
                });
            }
        });
        // Post-recovery reads are either hits with the pure value or
        // misses (cleared shard) — never garbage.
        for k in 0..512u32 {
            if let Some(v) = cache.get(&k) {
                assert_eq!(v, k * 3);
            }
        }
    }
}
