//! Operation counters for persistence-cost analysis.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::pad::CachePadded;

/// Internal mutable counter block. Per-handle instances use it through
/// `&mut`-free atomic adds so the same type can serve as the pool-global
/// accumulator.
#[derive(Debug, Default)]
pub struct PersistStats {
    /// Word loads.
    pub loads: u64,
    /// Word stores (cached).
    pub stores: u64,
    /// Non-temporal stores.
    pub nt_stores: u64,
    /// `clwb`/`clflush` issues.
    pub clwbs: u64,
    /// Persist fences executed.
    pub fences: u64,
    /// Cache lines actually drained to NVM by fences.
    pub lines_persisted: u64,
    /// Bytes written into log structures (stores issued inside a
    /// [`log scope`](crate::PmemHandle::begin_log) — UNDO/REDO entry
    /// payloads, shadow register files, recovery markers).
    pub log_bytes: u64,
    global: GlobalCounters,
}

/// The pool-global accumulator half. Each counter sits in its own cache
/// line: sweeps running 64+ simulated threads fold per-handle stats in
/// from many OS threads at once, and unpadded neighbours false-share.
#[derive(Debug, Default)]
struct GlobalCounters {
    loads: CachePadded<AtomicU64>,
    stores: CachePadded<AtomicU64>,
    nt_stores: CachePadded<AtomicU64>,
    clwbs: CachePadded<AtomicU64>,
    fences: CachePadded<AtomicU64>,
    lines_persisted: CachePadded<AtomicU64>,
    log_bytes: CachePadded<AtomicU64>,
}

impl PersistStats {
    /// Folds another counter block into this one's global (atomic) half.
    pub fn merge(&self, other: &PersistStats) {
        let o = other.snapshot();
        self.global.loads.fetch_add(o.loads, Ordering::Relaxed);
        self.global.stores.fetch_add(o.stores, Ordering::Relaxed);
        self.global.nt_stores.fetch_add(o.nt_stores, Ordering::Relaxed);
        self.global.clwbs.fetch_add(o.clwbs, Ordering::Relaxed);
        self.global.fences.fetch_add(o.fences, Ordering::Relaxed);
        self.global.lines_persisted.fetch_add(o.lines_persisted, Ordering::Relaxed);
        self.global.log_bytes.fetch_add(o.log_bytes, Ordering::Relaxed);
    }

    /// Resets the global half to `s` (checkpoint rollback of the
    /// pool-global accumulator, whose local half is always zero).
    pub(crate) fn restore_global(&self, s: &StatsSnapshot) {
        self.global.loads.store(s.loads, Ordering::Relaxed);
        self.global.stores.store(s.stores, Ordering::Relaxed);
        self.global.nt_stores.store(s.nt_stores, Ordering::Relaxed);
        self.global.clwbs.store(s.clwbs, Ordering::Relaxed);
        self.global.fences.store(s.fences, Ordering::Relaxed);
        self.global.lines_persisted.store(s.lines_persisted, Ordering::Relaxed);
        self.global.log_bytes.store(s.log_bytes, Ordering::Relaxed);
    }

    /// A point-in-time copy combining the local and global halves.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            loads: self.loads + self.global.loads.load(Ordering::Relaxed),
            stores: self.stores + self.global.stores.load(Ordering::Relaxed),
            nt_stores: self.nt_stores + self.global.nt_stores.load(Ordering::Relaxed),
            clwbs: self.clwbs + self.global.clwbs.load(Ordering::Relaxed),
            fences: self.fences + self.global.fences.load(Ordering::Relaxed),
            lines_persisted: self.lines_persisted
                + self.global.lines_persisted.load(Ordering::Relaxed),
            log_bytes: self.log_bytes + self.global.log_bytes.load(Ordering::Relaxed),
        }
    }
}

/// Immutable copy of the counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Word loads.
    pub loads: u64,
    /// Word stores (cached).
    pub stores: u64,
    /// Non-temporal stores.
    pub nt_stores: u64,
    /// `clwb`/`clflush` issues.
    pub clwbs: u64,
    /// Persist fences executed.
    pub fences: u64,
    /// Cache lines actually drained to NVM by fences.
    pub lines_persisted: u64,
    /// Bytes written into log structures (see [`PersistStats::log_bytes`]).
    pub log_bytes: u64,
}

impl StatsSnapshot {
    /// Total persistence-related events (flush issues + fences + NT stores);
    /// a rough proxy for instrumentation overhead.
    pub fn persistence_events(&self) -> u64 {
        self.clwbs + self.fences + self.nt_stores
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "loads={} stores={} nt={} clwb={} fences={} lines={} logB={}",
            self.loads,
            self.stores,
            self.nt_stores,
            self.clwbs,
            self.fences,
            self.lines_persisted,
            self.log_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let g = PersistStats::default();
        let mut a = PersistStats::default();
        a.loads = 3;
        a.fences = 1;
        a.log_bytes = 64;
        g.merge(&a);
        a.loads = 2;
        g.merge(&a);
        let s = g.snapshot();
        assert_eq!(s.loads, 5);
        assert_eq!(s.fences, 2);
        assert_eq!(s.log_bytes, 128);
    }

    #[test]
    fn display_is_nonempty() {
        let s = StatsSnapshot::default();
        assert!(!format!("{s}").is_empty());
    }

    #[test]
    fn persistence_events_sum() {
        let s = StatsSnapshot { clwbs: 2, fences: 3, nt_stores: 4, ..Default::default() };
        assert_eq!(s.persistence_events(), 9);
    }
}
