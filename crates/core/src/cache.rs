//! A sharded, fingerprint-keyed cache of bound-input [`EventTable`]s.
//!
//! PR 4 memoized bound inputs in a 32-entry MRU owned by one evaluator
//! and thrown away with the run. This module promotes that structure to
//! a *shareable* cache: [`SharedEventCache`] is `Send + Sync`, lives in
//! an `Arc`, and is safe to hand to any number of concurrent miners —
//! the snapshot-scoped cache behind [`crate::snapshot::Snapshot`] and
//! the per-query engine of `pfcim serve`.
//!
//! Sharing is *result-invariant*: a cached table's
//! [`EventTable::family_excluding`] projection is bitwise-identical to a
//! direct [`crate::events::NonClosureEvents`] build (the events module
//! proves it), so a hit changes only work counters, never a mined
//! probability.
//!
//! # Sharding
//!
//! Entries are spread over up to [`MAX_SHARDS`] mutex-protected MRU
//! vectors by tid-set fingerprint, so concurrent queries against one
//! snapshot rarely contend on the same lock. Small capacities (at or
//! below [`SINGLE_SHARD_MAX`]) collapse to one shard, keeping the
//! per-run cache's eviction behaviour of the previous design. Lookup
//! verifies **full tid-set equality and `min_sup`** on a fingerprint
//! match, so a 64-bit collision — or two queries with different support
//! thresholds — degrades to a miss, never to a wrong table.
//!
//! Global hit/miss counters (relaxed atomics) feed the service's
//! `/metrics` endpoint; per-query hit/miss attribution stays in each
//! run's [`crate::stats::KernelStats`], incremented at the same lookup
//! site, so the cache totals reconcile with the sum over queries by
//! construction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};

use utdb::TidBitmap;

use crate::events::EventTable;

/// Shard count for capacities above [`SINGLE_SHARD_MAX`].
pub const MAX_SHARDS: usize = 16;

/// Capacities up to this run single-sharded, preserving the exact MRU
/// eviction order of the legacy per-run cache at its default size.
pub const SINGLE_SHARD_MAX: usize = 64;

/// One shard: an MRU-first vector — at per-shard capacities a linear
/// scan beats any hashed structure.
#[derive(Default)]
struct Shard {
    entries: Vec<(u64, Arc<EventTable>)>,
}

/// A sharded, fingerprint-keyed, capacity-bounded cache of
/// [`EventTable`]s, shareable across threads and queries (see the
/// [module docs](self)).
pub struct SharedEventCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard entry cap (total capacity split evenly).
    shard_capacity: usize,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Lock acquisitions that found the shard mutex already held (the
    /// `try_lock` probe failed and the caller had to block). Exported as
    /// `pfcim_serve_snapshot_cache_contended_total`.
    contended: AtomicU64,
}

impl std::fmt::Debug for SharedEventCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedEventCache")
            .field("capacity", &self.capacity)
            .field("shards", &self.shards.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl SharedEventCache {
    /// A cache holding at most `capacity` tables in total. `0` disables
    /// memoization: every lookup misses and nothing is stored.
    pub fn new(capacity: usize) -> Self {
        let shards = if capacity <= SINGLE_SHARD_MAX {
            1
        } else {
            MAX_SHARDS
        };
        Self::with_shards(capacity, shards)
    }

    /// As [`SharedEventCache::new`] but with an explicit shard count —
    /// the benchmark harness pins `1` to measure what the sharding is
    /// worth under concurrent queries (clamped to `1..=MAX_SHARDS`).
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, MAX_SHARDS);
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity: capacity.div_ceil(shards),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            contended: AtomicU64::new(0),
        }
    }

    /// Lock a shard, counting the acquisition as contended when a
    /// `try_lock` probe finds the mutex already held.
    ///
    /// A shard poisoned by a panicking holder is still consistent: every
    /// mutation is one `Vec` insert, remove or pop of an immutable
    /// `Arc<EventTable>`. So the guard is recovered, never unwrapped.
    fn lock_counted<'s>(&self, shard: &'s Mutex<Shard>) -> MutexGuard<'s, Shard> {
        match shard.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                shard.lock().unwrap_or_else(PoisonError::into_inner)
            }
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        }
    }

    fn shard(&self, fingerprint: u64) -> &Mutex<Shard> {
        // High bits: the fingerprint is already a mixed hash.
        let idx = (fingerprint >> 48) as usize % self.shards.len();
        &self.shards[idx]
    }

    /// Number of shards entries are spread over.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total entry capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cumulative lookup hits across every query that used this cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cumulative lookup misses across every query that used this cache.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cumulative contended lock acquisitions (see
    /// [`SharedEventCache::with_shards`]); `0` under purely sequential
    /// use.
    pub fn contended(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }

    /// Drop every resident entry, keeping the counters — how a snapshot
    /// invalidates memoized bound inputs when its database is swapped
    /// for a new window state.
    pub fn clear(&self) {
        for shard in &self.shards {
            self.lock_counted(shard).entries.clear();
        }
    }

    /// Entries currently resident (sums shard lengths; advisory under
    /// concurrency).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .entries
                    .len()
            })
            .sum()
    }

    /// True when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up the table for `tids` (with its precomputed `fingerprint`)
    /// built at `min_sup`, counting a hit or a miss.
    pub fn get(
        &self,
        fingerprint: u64,
        tids: &TidBitmap,
        min_sup: usize,
    ) -> Option<Arc<EventTable>> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut shard = self.lock_counted(self.shard(fingerprint));
        let pos = shard.entries.iter().position(|(fp, table)| {
            *fp == fingerprint && table.min_sup() == min_sup && table.tids() == tids
        });
        match pos {
            Some(pos) => {
                let entry = shard.entries.remove(pos);
                let table = Arc::clone(&entry.1);
                shard.entries.insert(0, entry);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(table)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store `table` under `fingerprint`, evicting the least recently
    /// used entry of its shard when full. No-op at capacity `0`.
    pub fn insert(&self, fingerprint: u64, table: Arc<EventTable>) {
        if self.capacity == 0 {
            return;
        }
        let mut shard = self.lock_counted(self.shard(fingerprint));
        if shard.entries.len() == self.shard_capacity {
            shard.entries.pop();
        }
        shard.entries.insert(0, (fingerprint, table));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utdb::UncertainDatabase;

    fn table_for(db: &UncertainDatabase, item: u32, min_sup: usize) -> (u64, Arc<EventTable>) {
        let tids = db.bitmap_of(utdb::Item(item)).clone();
        let fp = tids.fingerprint();
        (fp, Arc::new(EventTable::build(db, &tids, min_sup)))
    }

    fn db() -> UncertainDatabase {
        UncertainDatabase::parse_symbolic(&[
            ("a b c d", 0.9),
            ("a b c", 0.6),
            ("a b c", 0.7),
            ("a b c d", 0.9),
        ])
    }

    #[test]
    fn hit_and_miss_counters_track_lookups() {
        let db = db();
        let cache = SharedEventCache::new(8);
        let (fp, table) = table_for(&db, 0, 2);
        let tids = table.tids().clone();
        assert!(cache.get(fp, &tids, 2).is_none());
        cache.insert(fp, Arc::clone(&table));
        assert!(cache.get(fp, &tids, 2).is_some());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn min_sup_is_part_of_the_key() {
        // Same tid-set, different support threshold: the stored table's
        // event family would be wrong, so the lookup must miss.
        let db = db();
        let cache = SharedEventCache::new(8);
        let (fp, table) = table_for(&db, 0, 2);
        let tids = table.tids().clone();
        cache.insert(fp, table);
        assert!(cache.get(fp, &tids, 3).is_none());
        assert!(cache.get(fp, &tids, 2).is_some());
    }

    #[test]
    fn capacity_zero_disables_storage() {
        let db = db();
        let cache = SharedEventCache::new(0);
        let (fp, table) = table_for(&db, 0, 2);
        let tids = table.tids().clone();
        cache.insert(fp, table);
        assert!(cache.get(fp, &tids, 2).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn eviction_respects_per_shard_capacity() {
        let db = db();
        let cache = SharedEventCache::new(1);
        let (fp_a, table_a) = table_for(&db, 0, 2);
        let (fp_d, table_d) = table_for(&db, 3, 2);
        assert_ne!(fp_a, fp_d, "distinct tid-sets fingerprint apart");
        let tids_a = table_a.tids().clone();
        cache.insert(fp_a, table_a);
        cache.insert(fp_d, table_d);
        assert_eq!(cache.len(), 1, "capacity 1 keeps only the newest entry");
        assert!(cache.get(fp_a, &tids_a, 2).is_none());
    }

    #[test]
    fn large_capacities_spread_over_shards() {
        let cache = SharedEventCache::new(1024);
        assert_eq!(cache.shards.len(), MAX_SHARDS);
        assert_eq!(cache.shard_capacity, 64);
        let small = SharedEventCache::new(32);
        assert_eq!(small.shards.len(), 1);
    }

    #[test]
    fn explicit_shard_count_is_clamped_and_respected() {
        let single = SharedEventCache::with_shards(1024, 1);
        assert_eq!(single.shard_count(), 1);
        assert_eq!(single.shard_capacity, 1024);
        let over = SharedEventCache::with_shards(1024, 99);
        assert_eq!(over.shard_count(), MAX_SHARDS);
        let zero = SharedEventCache::with_shards(64, 0);
        assert_eq!(zero.shard_count(), 1);
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let db = db();
        let cache = SharedEventCache::new(8);
        let (fp, table) = table_for(&db, 0, 2);
        let tids = table.tids().clone();
        cache.insert(fp, table);
        assert!(cache.get(fp, &tids, 2).is_some());
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.get(fp, &tids, 2).is_none());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn contention_counter_observes_a_held_shard() {
        // Sequential use never contends; a thread hammering a
        // single-shard cache while another holds its lock must.
        let db = db();
        let cache = Arc::new(SharedEventCache::with_shards(1024, 1));
        let (fp, table) = table_for(&db, 0, 2);
        let tids = table.tids().clone();
        cache.insert(fp, Arc::clone(&table));
        assert_eq!(cache.contended(), 0);

        let guard = cache.shards[0].lock().unwrap();
        let worker = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                while cache.contended() == 0 {
                    std::hint::spin_loop();
                }
            })
        };
        // The worker can only make progress once we release the lock;
        // sleep long enough for its first blocked acquisition to count.
        let prober = {
            let cache = Arc::clone(&cache);
            let tids = tids.clone();
            std::thread::spawn(move || {
                cache.get(fp, &tids, 2);
            })
        };
        while cache.contended() == 0 {
            std::thread::yield_now();
        }
        drop(guard);
        prober.join().unwrap();
        worker.join().unwrap();
        assert!(cache.contended() >= 1);
    }

    #[test]
    fn shared_across_threads() {
        let db = db();
        let cache = Arc::new(SharedEventCache::new(128));
        let (fp, table) = table_for(&db, 0, 2);
        let tids = table.tids().clone();
        cache.insert(fp, table);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let tids = tids.clone();
                std::thread::spawn(move || cache.get(fp, &tids, 2).is_some())
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap());
        }
        assert_eq!(cache.hits(), 4);
    }

    #[test]
    fn a_poisoned_shard_keeps_serving() {
        let db = db();
        let cache = Arc::new(SharedEventCache::new(8));
        let (fp_a, table_a) = table_for(&db, 0, 2);
        let (fp_d, table_d) = table_for(&db, 3, 2);
        let (tids_a, tids_d) = (table_a.tids().clone(), table_d.tids().clone());
        cache.insert(fp_a, table_a);
        let poisoner = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let _guard = cache.shards[0].lock().unwrap();
                panic!("a query panics while holding the shard");
            })
        };
        assert!(poisoner.join().is_err());
        assert!(cache.shards[0].is_poisoned());

        assert!(cache.get(fp_a, &tids_a, 2).is_some());
        assert!(cache.get(fp_d, &tids_d, 2).is_none());
        cache.insert(fp_d, table_d);
        assert!(cache.get(fp_d, &tids_d, 2).is_some());
        assert_eq!(cache.len(), 2);
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
    }
}
