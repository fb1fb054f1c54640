//! The in-memory result cache of a [`QueryService`](crate::QueryService).
//!
//! Entries are keyed by the [`Query`] value itself. Its derived `Hash` and
//! `Eq` cover exactly the fields [`Query::canonical_identity`] renders —
//! kind and its parameters, `p`, seed, budget and snapshot id — so two
//! queries share an entry exactly when their identities, and with them
//! their response payloads, are equal. A lookup builds no string and hashes
//! a few words; a hit clones the stored outcome. Hit/miss counters are
//! atomics, so they are read without taking the map lock.

use crate::model::Query;
use crate::service::QueryOutcome;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The service-owned result cache: a map behind a [`Mutex`] (held only for
/// lookups and inserts, never while enumerating) plus lock-free hit/miss
/// counters.
pub(crate) struct QueryCache {
    entries: Mutex<HashMap<Query, QueryOutcome>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl QueryCache {
    /// An empty cache.
    pub(crate) fn new() -> QueryCache {
        QueryCache {
            entries: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the cached outcome of `query`, counting a hit; otherwise
    /// counts a miss.
    pub(crate) fn lookup(&self, query: &Query) -> Option<QueryOutcome> {
        let entries = self.entries.lock().expect("query cache lock poisoned");
        let outcome = entries.get(query).cloned();
        let counter = if outcome.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        outcome
    }

    /// Stores `outcome` for `query`. An existing entry is replaced; it holds
    /// the same deterministic outcome.
    pub(crate) fn insert(&self, query: Query, outcome: QueryOutcome) {
        let mut entries = self.entries.lock().expect("query cache lock poisoned");
        entries.insert(query, outcome);
    }

    /// Point-in-time counters and entry count.
    pub(crate) fn stats(&self) -> CacheStats {
        let entries = self.entries.lock().expect("query cache lock poisoned");
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: entries.len(),
        }
    }

    /// Drops every entry and zeroes the counters.
    pub(crate) fn clear(&self) {
        let mut entries = self.entries.lock().expect("query cache lock poisoned");
        entries.clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time view of a service's cache counters, returned by
/// [`QueryService::cache_stats`](crate::QueryService::cache_stats).
///
/// `hits + misses` equals the number of cache probes so far (one per executed
/// query); `entries` is the number of distinct results currently stored.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered from the cache (the enumeration was short-circuited).
    pub hits: u64,
    /// Probes that fell through to a fresh enumeration.
    pub misses: u64,
    /// Distinct results currently stored.
    pub entries: usize,
}
