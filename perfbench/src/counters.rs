//! Engine-side counts, read from outside the engine.
//!
//! A [`Counters`] is a point-in-time reading of the engine's metrics
//! registry (through `metrics_snapshot()`), of both devices' statistics
//! and of the relations' append regions. Two readings bracket a measured
//! phase; [`Counters::since`] gives the work done inside it.

use sias_common::PAGE_SIZE;
use sias_core::SiasDb;
use sias_storage::DeviceStats;
use sias_txn::MvccEngine;

/// One reading of the engine's counters.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Buffer-pool lookups served from memory.
    pub buffer_hits: u64,
    /// Buffer-pool lookups that read the device.
    pub buffer_misses: u64,
    /// Frames recycled.
    pub evictions: u64,
    /// Dirty victims written back at eviction.
    pub eviction_writes: u64,
    /// WAL device forces.
    pub wal_forces: u64,
    /// WAL record bytes appended.
    pub wal_bytes: u64,
    /// Forces that carried commit records (group-size histogram count).
    pub wal_groups: u64,
    /// Commit records carried by those forces (histogram sum).
    pub wal_group_commits: u64,
    /// Chain walks (depth histogram count).
    pub chain_walks: u64,
    /// Versions fetched by those walks (depth histogram sum).
    pub chain_versions: u64,
    /// Longest walk so far (not a delta: the registry keeps only the max).
    pub chain_max: u64,
    /// Visibility-memo hits.
    pub memo_hits: u64,
    /// Visibility-memo misses.
    pub memo_misses: u64,
    /// Aborts on write-write conflicts.
    pub write_conflicts: u64,
    /// Checkpoints run.
    pub ckpt_runs: u64,
    /// Pages flushed by checkpoints.
    pub ckpt_pages: u64,
    /// Begins the admission gate delayed.
    pub admission_delayed: u64,
    /// Data-device statistics.
    pub data: DeviceStats,
    /// WAL-device statistics.
    pub wal_dev: DeviceStats,
    /// Append pages sealed, summed over relations.
    pub sealed_pages: u64,
}

impl Counters {
    /// Reads every counter of `db` now.
    pub fn capture(db: &SiasDb) -> Counters {
        let s = db.metrics_snapshot();
        let c = |name: &str| s.counter(name).unwrap_or(0);
        let h = |name: &str| s.histogram(name).copied().unwrap_or_default();
        let group = h("storage.wal.group_size");
        let depth = h("core.engine.chain_depth");
        Counters {
            buffer_hits: c("storage.buffer.hits"),
            buffer_misses: c("storage.buffer.misses"),
            evictions: c("storage.buffer.evictions"),
            eviction_writes: c("storage.buffer.eviction_writes"),
            wal_forces: c("storage.wal.forces"),
            wal_bytes: c("storage.wal.bytes_appended"),
            wal_groups: group.count,
            wal_group_commits: group.sum,
            chain_walks: depth.count,
            chain_versions: depth.sum,
            chain_max: depth.max,
            memo_hits: c("txn.snapshot.memo_hits"),
            memo_misses: c("txn.snapshot.memo_misses"),
            write_conflicts: c("txn.manager.aborts_write_conflict"),
            ckpt_runs: c("storage.ckpt.runs"),
            ckpt_pages: c("storage.ckpt.pages_flushed"),
            admission_delayed: c("core.admission.delayed"),
            data: db.stack().data.stats(),
            wal_dev: db.stack().wal.device().stats(),
            sealed_pages: db.relation_handles().iter().map(|r| r.append.sealed_pages()).sum(),
        }
    }

    /// Work done between `earlier` and `self`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        self.zip(earlier, |a, b| a - b, self.chain_max)
    }

    /// Sums two phase deltas (the chain maximum takes the larger).
    pub fn add(&self, o: &Counters) -> Counters {
        self.zip(o, |a, b| a + b, self.chain_max.max(o.chain_max))
    }

    /// Combines every count field by field with `f`; `chain_max` is a
    /// running maximum, not a count, and is given by the caller.
    fn zip(&self, o: &Counters, f: impl Fn(u64, u64) -> u64, chain_max: u64) -> Counters {
        let dev = |a: &DeviceStats, b: &DeviceStats| DeviceStats {
            host_read_pages: f(a.host_read_pages, b.host_read_pages),
            host_write_pages: f(a.host_write_pages, b.host_write_pages),
            internal_write_pages: f(a.internal_write_pages, b.internal_write_pages),
            erases: f(a.erases, b.erases),
            trims: f(a.trims, b.trims),
        };
        Counters {
            buffer_hits: f(self.buffer_hits, o.buffer_hits),
            buffer_misses: f(self.buffer_misses, o.buffer_misses),
            evictions: f(self.evictions, o.evictions),
            eviction_writes: f(self.eviction_writes, o.eviction_writes),
            wal_forces: f(self.wal_forces, o.wal_forces),
            wal_bytes: f(self.wal_bytes, o.wal_bytes),
            wal_groups: f(self.wal_groups, o.wal_groups),
            wal_group_commits: f(self.wal_group_commits, o.wal_group_commits),
            chain_walks: f(self.chain_walks, o.chain_walks),
            chain_versions: f(self.chain_versions, o.chain_versions),
            chain_max,
            memo_hits: f(self.memo_hits, o.memo_hits),
            memo_misses: f(self.memo_misses, o.memo_misses),
            write_conflicts: f(self.write_conflicts, o.write_conflicts),
            ckpt_runs: f(self.ckpt_runs, o.ckpt_runs),
            ckpt_pages: f(self.ckpt_pages, o.ckpt_pages),
            admission_delayed: f(self.admission_delayed, o.admission_delayed),
            data: dev(&self.data, &o.data),
            wal_dev: dev(&self.wal_dev, &o.wal_dev),
            sealed_pages: f(self.sealed_pages, o.sealed_pages),
        }
    }

    /// Bytes written to both devices (data pages plus WAL pages).
    pub fn device_write_bytes(&self) -> u64 {
        (self.data.host_write_pages + self.wal_dev.host_write_pages) * PAGE_SIZE as u64
    }
}

/// Pages held by all relations (data, index, persisted VID maps), not
/// counting data pages GC has returned to the free list.
pub fn relation_pages(db: &SiasDb) -> u64 {
    let space = &db.stack().space;
    let allocated: u64 =
        space.relations().iter().map(|r| u64::from(space.relation_blocks(*r))).sum();
    let free: u64 = db.relation_handles().iter().map(|r| r.append.free_blocks() as u64).sum();
    allocated - free
}

/// Resident memory of the VID maps, bytes.
pub fn vidmap_bytes(db: &SiasDb) -> u64 {
    db.relation_handles().iter().map(|r| r.vidmap.memory_bytes() as u64).sum()
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
