//! Immutable database snapshots — the unit a mining service loads once
//! and answers many queries against.
//!
//! A [`Snapshot`] owns three things: the [`UncertainDatabase`] (which
//! already carries its per-item `TidBitmap` index), a snapshot-scoped
//! [`SharedEventCache`] of bound/DP inputs, and a name for addressing it
//! over the wire. Queries with *different* `min_sup`/`pfct`/`ε`/`δ`
//! share the cache safely: entries are keyed by tid-set fingerprint
//! *and* `min_sup`, and a cache hit is result-invariant (projection is
//! bitwise-identical to a direct build).
//!
//! [`Snapshot::miner`] is the query entry point; `Miner::new(&db)` is
//! the same engine without a table cache — both drive one code path
//! through the builder's `run`. Cloning a `Snapshot` is cheap (a few
//! `Arc` bumps) — hand one clone to each server worker.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use utdb::UncertainDatabase;

use crate::cache::SharedEventCache;
use crate::miner::Miner;

/// Default capacity of a snapshot's shared event-table cache: snapshots
/// outlive any single query, and queries at the same `min_sup` ask for
/// the same tables.
pub const DEFAULT_SNAPSHOT_CACHE_CAPACITY: usize = 1024;

/// An immutable, named, shareable view of an uncertain database plus the
/// query-independent artifacts concurrent miners share (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub struct Snapshot {
    name: String,
    db: Arc<UncertainDatabase>,
    cache: Arc<SharedEventCache>,
    /// Bumped by [`Snapshot::invalidate`]; shared across clones so every
    /// holder observes the bump. Result caches keyed on the generation
    /// stop matching stale entries the moment it moves.
    generation: Arc<AtomicU64>,
}

impl Snapshot {
    /// Wrap `db` as a snapshot named `name`, with the default shared
    /// cache capacity ([`DEFAULT_SNAPSHOT_CACHE_CAPACITY`]).
    pub fn new(name: impl Into<String>, db: UncertainDatabase) -> Self {
        Self::with_cache_capacity(name, db, DEFAULT_SNAPSHOT_CACHE_CAPACITY)
    }

    /// Wrap `db` with an explicit shared-cache capacity (`0` disables
    /// cross-query memoization).
    pub fn with_cache_capacity(
        name: impl Into<String>,
        db: UncertainDatabase,
        capacity: usize,
    ) -> Self {
        Self {
            name: name.into(),
            db: Arc::new(db),
            cache: Arc::new(SharedEventCache::new(capacity)),
            generation: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A successor snapshot carrying `db` under the same name and
    /// generation lineage: the generation is bumped and the shared
    /// event-table cache is dropped in favour of a fresh one (its
    /// entries were built against the *old* database's probabilities,
    /// so a fingerprint-and-tidset match could still be numerically
    /// stale). This is how a [`crate::stream::StreamMiner`] republishes
    /// its window to a server between refreshes.
    pub fn replace_database(&self, db: UncertainDatabase) -> Self {
        self.generation.fetch_add(1, Ordering::SeqCst);
        Self {
            name: self.name.clone(),
            db: Arc::new(db),
            cache: Arc::new(SharedEventCache::new(self.cache.capacity())),
            generation: Arc::clone(&self.generation),
        }
    }

    /// Invalidate every derived artifact: bump the generation (so
    /// generation-keyed result caches stop matching) and drop the
    /// memoized event tables.
    pub fn invalidate(&self) {
        self.generation.fetch_add(1, Ordering::SeqCst);
        self.cache.clear();
    }

    /// The current invalidation generation (starts at `0`).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// The snapshot's wire name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying database.
    pub fn database(&self) -> &UncertainDatabase {
        &self.db
    }

    /// The snapshot-scoped event-table cache (for metrics and tests).
    pub fn cache(&self) -> &Arc<SharedEventCache> {
        &self.cache
    }

    /// Content fingerprint of the underlying database — the snapshot's
    /// identity for result-cache keys.
    pub fn fingerprint(&self) -> u64 {
        self.db.fingerprint()
    }

    /// Start building a query against this snapshot: the same fluent
    /// [`Miner`] API, wired to this snapshot's shared table cache so
    /// concurrent and successive queries reuse each other's event
    /// tables.
    pub fn miner(&self) -> Miner<'_> {
        Miner::new(&self.db).with_shared_cache(Arc::clone(&self.cache))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table2() -> UncertainDatabase {
        UncertainDatabase::parse_symbolic(&[
            ("a b c d", 0.9),
            ("a b c", 0.6),
            ("a b c", 0.7),
            ("a b c d", 0.9),
        ])
    }

    #[test]
    fn snapshot_miner_matches_plain_miner() {
        let db = table2();
        let direct = Miner::new(&db).min_sup(2).pfct(0.8).run();
        let snap = Snapshot::new("t2", db);
        let via_snapshot = snap.miner().min_sup(2).pfct(0.8).run();
        assert_eq!(via_snapshot.results, direct.results);
        assert_eq!(via_snapshot.stats, direct.stats);
    }

    #[test]
    fn successive_queries_share_the_cache() {
        let snap = Snapshot::new("t2", table2());
        let first = snap.miner().min_sup(2).pfct(0.8).run();
        let second = snap.miner().min_sup(2).pfct(0.8).run();
        assert_eq!(first.results, second.results);
        // The second query finds every table the first one built.
        assert!(second.kernel.bound_cache_hits >= first.kernel.bound_cache_hits);
        assert!(
            second.kernel.bound_cache_misses < first.kernel.bound_cache_misses
                || first.kernel.bound_cache_misses == 0
        );
        // Cache totals reconcile with the per-query kernels.
        let kernel_lookups = first.kernel.bound_cache_hits
            + first.kernel.bound_cache_misses
            + second.kernel.bound_cache_hits
            + second.kernel.bound_cache_misses;
        assert_eq!(snap.cache().hits() + snap.cache().misses(), kernel_lookups);
        assert!(snap.cache().hits() > 0);
    }

    #[test]
    fn clone_shares_database_and_cache() {
        let snap = Snapshot::new("t2", table2());
        let clone = snap.clone();
        assert!(std::ptr::eq(snap.database(), clone.database()));
        assert!(Arc::ptr_eq(snap.cache(), clone.cache()));
        assert_eq!(snap.fingerprint(), clone.fingerprint());
    }

    #[test]
    fn invalidate_bumps_every_clone_and_clears_the_cache() {
        let snap = Snapshot::new("t2", table2());
        let clone = snap.clone();
        snap.miner().min_sup(2).pfct(0.8).run();
        assert!(!snap.cache().is_empty());
        snap.invalidate();
        assert_eq!(snap.generation(), 1);
        assert_eq!(clone.generation(), 1, "clones share the generation");
        assert!(snap.cache().is_empty());
    }

    #[test]
    fn replace_database_advances_the_generation_with_a_fresh_cache() {
        let snap = Snapshot::new("t2", table2());
        snap.miner().min_sup(2).pfct(0.8).run();
        let next = snap.replace_database(table2());
        assert_eq!(next.name(), snap.name());
        assert_eq!(next.generation(), 1);
        assert_eq!(snap.generation(), 1, "lineage is shared");
        assert!(
            !Arc::ptr_eq(snap.cache(), next.cache()),
            "stale event tables must not leak into the successor"
        );
        assert!(next.cache().is_empty());
        assert_eq!(next.cache().capacity(), snap.cache().capacity());
    }
}
