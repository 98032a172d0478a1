//! A [`StoreTier`] wrapper that times and counts the tier traffic of the
//! traced iterations.

use crate::trace;
use rtlt_store::{
    ContentHash, GcReport, Store, StoreTier, TierKind, TierLookup, TierStats, DEFAULT_MEM_BUDGET,
};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A byte tier with busy-time and traffic counters. Counters are plain
/// statistics (`Relaxed`): they publish no other data and are read after
/// the workers that update them have been joined.
#[derive(Debug)]
pub struct TimedTier<T> {
    inner: T,
    puts: AtomicU64,
    put_nanos: AtomicU64,
    put_bytes: AtomicU64,
    gets: AtomicU64,
    hits: AtomicU64,
    get_nanos: AtomicU64,
    read_bytes: AtomicU64,
}

/// Snapshot of a [`TimedTier`]'s counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TierCounters {
    /// `put_bytes` calls.
    pub puts: u64,
    /// Seconds spent inside `put_bytes`, summed over threads.
    pub put_s: f64,
    /// Frame bytes handed to `put_bytes` (what lands on disk, before the
    /// entry envelope).
    pub put_bytes: u64,
    /// `get_bytes` calls, hits and misses.
    pub gets: u64,
    /// `get_bytes` calls that returned a frame.
    pub hits: u64,
    /// Seconds spent inside `get_bytes`, summed over threads.
    pub get_s: f64,
    /// Frame bytes returned by `get_bytes`.
    pub read_bytes: u64,
}

impl<T: StoreTier> TimedTier<T> {
    /// Wraps `inner`.
    pub fn new(inner: T) -> TimedTier<T> {
        TimedTier {
            inner,
            puts: AtomicU64::new(0),
            put_nanos: AtomicU64::new(0),
            put_bytes: AtomicU64::new(0),
            gets: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            get_nanos: AtomicU64::new(0),
            read_bytes: AtomicU64::new(0),
        }
    }

    /// Current counters.
    pub fn counters(&self) -> TierCounters {
        let secs = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64 * 1e-9;
        TierCounters {
            puts: self.puts.load(Ordering::Relaxed),
            put_s: secs(&self.put_nanos),
            put_bytes: self.put_bytes.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            get_s: secs(&self.get_nanos),
            read_bytes: self.read_bytes.load(Ordering::Relaxed),
        }
    }
}

fn nanos_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl<T: StoreTier> StoreTier for TimedTier<T> {
    fn kind(&self) -> TierKind {
        self.inner.kind()
    }

    fn get_bytes(&self, ns: &str, key: ContentHash) -> TierLookup {
        let _span = trace::span("store.get");
        let t = Instant::now();
        let out = self.inner.get_bytes(ns, key);
        self.get_nanos.fetch_add(nanos_since(t), Ordering::Relaxed);
        self.gets.fetch_add(1, Ordering::Relaxed);
        if let TierLookup::Hit(frame) = &out {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.read_bytes
                .fetch_add(frame.len() as u64, Ordering::Relaxed);
        }
        out
    }

    fn contains(&self, ns: &str, key: ContentHash) -> bool {
        self.inner.contains(ns, key)
    }

    fn put_bytes(&self, ns: &str, key: ContentHash, payload: &[u8]) {
        let _span = trace::span("store.put");
        let t = Instant::now();
        self.inner.put_bytes(ns, key, payload);
        self.put_nanos.fetch_add(nanos_since(t), Ordering::Relaxed);
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.put_bytes
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
    }

    fn remove(&self, ns: &str, key: ContentHash) {
        self.inner.remove(ns, key);
    }

    fn stats(&self) -> TierStats {
        self.inner.stats()
    }

    fn gc(&self, budget_bytes: u64) -> GcReport {
        self.inner.gc(budget_bytes)
    }

    fn disk_root(&self) -> Option<&Path> {
        self.inner.disk_root()
    }
}

/// A store over the one byte tier `tier` (with the default front-cache
/// budget, as [`Store::on_disk`] builds it), wrapped in a [`TimedTier`]
/// when `timed` (returned alongside so the caller can read its counters).
pub fn store_over<T: StoreTier + 'static>(
    tier: T,
    timed: bool,
) -> (Store, Option<Arc<TimedTier<T>>>) {
    if timed {
        let tier = Arc::new(TimedTier::new(tier));
        let store = Store::with_tiers(DEFAULT_MEM_BUDGET, vec![tier.clone()]);
        (store, Some(tier))
    } else {
        (
            Store::with_tiers(DEFAULT_MEM_BUDGET, vec![Arc::new(tier)]),
            None,
        )
    }
}
