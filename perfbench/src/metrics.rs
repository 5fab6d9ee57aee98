//! What a measured phase produced, and the metrics computed from it.
//!
//! Every workload runs measured phases and hands them here:
//! [`end_to_end`] turns the windows of an untraced run into the
//! end-to-end metrics, [`per_layer`] turns a pair of phases — one
//! untraced for the counts, one traced for the timings — into the
//! per-layer metrics.

use sias_core::GcStats;

use crate::counters::Counters;
use crate::probe::{Local, Sp};
use crate::report::{Kind, Report};
use crate::stats::{label, median_f64, Pct, Ratio, Samples};

/// Samples a tail percentile must leave beyond it.
pub const MIN_TAIL_BEYOND: usize = 10;

/// Garbage-collection work of a phase.
#[derive(Clone, Debug)]
pub struct GcRun {
    /// Wall time of each `vacuum_slice` call, ns.
    pub slice_ns: Samples,
    /// Summed slice outcomes.
    pub stats: GcStats,
    /// Victim pages parked for recycling when the phase ended.
    pub backlog_end: u64,
}

impl Default for GcRun {
    fn default() -> Self {
        GcRun { slice_ns: Samples::with_cap(1 << 16), stats: GcStats::default(), backlog_end: 0 }
    }
}

/// One measured phase.
pub struct Phase {
    /// Wall seconds the phase measured.
    pub wall_s: f64,
    /// Merged thread recordings of the probe.
    pub local: Local,
    /// Engine counters over the phase.
    pub counters: Counters,
    /// GC slices run in the phase.
    pub gc: GcRun,
    /// Open-loop updates: latency from each update's due time, ns.
    pub updater_lat_ns: Option<Samples>,
    /// Open-loop updates: how late each one started, ns.
    pub updater_late_ns: Option<Samples>,
    /// CPU steal ticks over all CPU ticks while the phase ran.
    pub steal: Ratio,
}

impl Phase {
    /// A phase over `local`, `counters` and `steal` with nothing else
    /// recorded.
    pub fn new(wall_s: f64, local: Local, counters: Counters, steal: Ratio) -> Self {
        Phase {
            wall_s,
            local,
            counters,
            gc: GcRun::default(),
            updater_lat_ns: None,
            updater_late_ns: None,
            steal,
        }
    }

    /// Folds another phase of the same kind into this one.
    pub fn merge(&mut self, o: &Phase) {
        self.wall_s += o.wall_s;
        self.local.merge(&o.local);
        self.counters = self.counters.add(&o.counters);
        self.gc.slice_ns.merge(&o.gc.slice_ns);
        self.gc.stats.merge(o.gc.stats);
        self.gc.backlog_end = self.gc.backlog_end.max(o.gc.backlog_end);
        self.steal = Ratio::new(self.steal.num + o.steal.num, self.steal.den + o.steal.den);
        for (a, b) in [
            (&mut self.updater_lat_ns, &o.updater_lat_ns),
            (&mut self.updater_late_ns, &o.updater_late_ns),
        ] {
            match (a.as_mut(), b) {
                (Some(x), Some(y)) => x.merge(y),
                (None, Some(y)) => *a = Some(y.clone()),
                _ => {}
            }
        }
    }
}

/// The end-to-end timings of one measured window. A run measures
/// several windows, leaves out the third that saw the most CPU steal,
/// and reports the median of each timing across the rest, so a stall
/// or a burst of steal that hits some windows does not move the run's
/// figure.
pub struct Window {
    /// Wall seconds the window measured.
    pub wall_s: f64,
    /// Transactions committed in it.
    pub commits: u64,
    /// Rows returned by reads in it.
    pub rows_read: u64,
    /// Latencies reported as `ro_txn_*`, ns.
    pub ro: Samples,
    /// Latencies reported as `rw_txn_*`, ns.
    pub rw: Samples,
    /// CPU steal while it ran.
    pub steal: Ratio,
}

impl Window {
    /// The window measured by `p`, reporting latency classes `ro` and
    /// `rw`. An open-loop updater's latencies, charged from due time,
    /// stand in for class `rw` when the phase has them.
    pub fn of(p: &Phase, ro: &str, rw: &str) -> Window {
        let acc = &p.local.acc;
        Window {
            wall_s: p.wall_s,
            commits: acc.commits,
            rows_read: acc.rows_read,
            ro: acc.class(ro),
            rw: p.updater_lat_ns.clone().unwrap_or_else(|| acc.class(rw)),
            steal: p.steal,
        }
    }
}

/// How a workload's run maps onto the end-to-end metrics.
pub struct E2eSpec<'a> {
    /// Tail quantile of read-only transaction latency.
    pub ro_tail_q: f64,
    /// Tail quantile of writing transaction latency.
    pub rw_tail_q: f64,
    /// Wall seconds of each set-up.
    pub setup_s: &'a [f64],
    /// Relation bytes over live payload bytes at the end of the run.
    pub space: Ratio,
    /// Whether the windows do alike work, each on a freshly loaded
    /// table, so that the ones with the most steal can be left out.
    /// Windows that run one after another on a growing database slow
    /// down from first to last, and leaving out some of them moves the
    /// median.
    pub windows_alike: bool,
}

/// The windows whose timings a run reports: all but the third that saw
/// the most CPU steal (the earlier window first among equals).
pub fn quietest(windows: &[Window]) -> Vec<&Window> {
    let mut kept: Vec<&Window> = windows.iter().collect();
    kept.sort_by(|a, b| a.steal.value().total_cmp(&b.steal.value()));
    kept.truncate(windows.len() - windows.len() / 3);
    kept
}

/// Adds the end-to-end metrics of an untraced run: timings as medians
/// over the quietest of `windows`, amplification and outcome ratios
/// over `total` (all windows merged).
pub fn end_to_end(r: &mut Report, windows: &[Window], total: &Phase, spec: &E2eSpec) {
    let acc = &total.local.acc;
    let all = windows.len();
    let windows = if spec.windows_alike { quietest(windows) } else { windows.iter().collect() };
    let steal = windows
        .iter()
        .fold(Ratio::new(0.0, 0.0), |s, w| Ratio::new(s.num + w.steal.num, s.den + w.steal.den));
    r.notes.push(format!(
        "timings from {} of {all} windows, with CPU steal of {:.2}% of their CPU time",
        windows.len(),
        steal.value() * 100.0
    ));
    r.timing_steal = Some(steal);
    let setups = spec.setup_s.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>().join(", ");
    r.value(
        Kind::EndToEnd,
        "setup_s",
        median_f64(spec.setup_s),
        "s",
        format!("median of {} set-ups: {setups}", spec.setup_s.len()),
    );
    let n = windows.len();
    let commits: fn(&Window) -> u64 = |w| w.commits;
    let rows: fn(&Window) -> u64 = |w| w.rows_read;
    for (name, count, what, of) in [
        ("commits_per_s", acc.commits, "commits", commits),
        ("rows_read_per_s", acc.rows_read, "rows", rows),
    ] {
        let rates: Vec<f64> =
            windows.iter().map(|w| Ratio::new(of(w) as f64, w.wall_s).value()).collect();
        let basis =
            format!("median of {n} of {all} windows; all: {count} {what} / {:.3} s", total.wall_s);
        r.value(Kind::EndToEnd, name, median_f64(&rates), "1/s", basis);
    }
    let ro: fn(&Window) -> &Samples = |w| &w.ro;
    let rw: fn(&Window) -> &Samples = |w| &w.rw;
    for (name, of, q) in [
        ("ro_txn_p50_us", ro, 0.5),
        ("ro_txn_tail_us", ro, spec.ro_tail_q),
        ("rw_txn_p50_us", rw, 0.5),
        ("rw_txn_tail_us", rw, spec.rw_tail_q),
    ] {
        let pcts: Vec<Pct> = windows.iter().map(|w| of(w).pct(q)).collect();
        let least = pcts.iter().map(|p| p.beyond).min().unwrap_or(0);
        let samples: usize = pcts.iter().map(|p| p.n).sum();
        let need = if q > 0.5 { MIN_TAIL_BEYOND } else { 0 };
        let label = label(q);
        if n == 0 || least < need {
            r.fail(format!(
                "{name}: {label} leaves {least} samples beyond it in some window, fewer than {need}"
            ));
        }
        let values: Vec<f64> = pcts.iter().map(|p| p.value * 1e-3).collect();
        let basis = format!(
            "median of {n} of {all} windows' {label}; n={samples}, at least {least} beyond in each"
        );
        r.value(Kind::EndToEnd, name, median_f64(&values), "us", basis);
    }
    r.ratio(
        Kind::EndToEnd,
        "success_ratio",
        Ratio::new((acc.attempts - acc.engine_aborts) as f64, acc.attempts as f64),
        "ratio",
        "not refused by the engine",
        "attempted",
    );
    r.ratio(
        Kind::EndToEnd,
        "write_amp",
        Ratio::new(total.counters.device_write_bytes() as f64, acc.payload_committed as f64),
        "ratio",
        "B written to data+WAL devices",
        "payload B committed",
    );
    r.ratio(
        Kind::EndToEnd,
        "space_amp",
        spec.space,
        "ratio",
        "B in relation pages",
        "live payload B",
    );
    let rss = crate::counters::peak_rss_mb();
    r.value(Kind::EndToEnd, "peak_rss_mb", rss, "MB", "VmHWM of the benchmark process".into());
}

/// Adds the per-layer metrics: counts from `counts` (untraced, so the
/// step-by-step repeats of traced reads do not inflate them), timings
/// from `timed`, VID-map memory from `vidmap_bytes`.
pub fn per_layer(r: &mut Report, counts: &Phase, timed: &Phase, vidmap_bytes: u64) {
    let t = &timed.local;
    let span_p50 = |sp: Sp| t.span(sp).dur.pct(0.5);
    for (name, sp) in [
        ("engine.begin_ns", Sp::Begin),
        ("engine.get_ns", Sp::Get),
        ("engine.update_ns", Sp::Update),
        ("engine.insert_ns", Sp::Insert),
        ("engine.commit_ro_ns", Sp::CommitRo),
        ("engine.commit_rw_ns_p50", Sp::CommitRw),
    ] {
        r.pct(Kind::Layer, name, span_p50(sp), 1.0, "ns");
    }
    r.pct(Kind::Layer, "engine.commit_rw_ns_p99", t.span(Sp::CommitRw).dur.pct(0.99), 1.0, "ns");
    let total = |sp: Sp| t.span(sp).dur.total() as f64;
    r.ratio(
        Kind::Layer,
        "engine.scan_range_ns_per_row",
        Ratio::new(total(Sp::ScanRange), t.acc.scan_rows as f64),
        "ns",
        "ns in scan_range",
        "rows",
    );
    r.ratio(
        Kind::Layer,
        "engine.maintenance_ns_per_commit",
        Ratio::new(total(Sp::Maintenance), t.acc.commits as f64),
        "ns",
        "ns in maintenance",
        "commits",
    );
    r.pct(Kind::Layer, "engine.get_residual_ns", t.acc.get_residual_ns.pct(0.5), 1.0, "ns");
    for (name, sp) in [
        ("index.lookup_ns", Sp::IndexLookup),
        ("vidmap.get_ns", Sp::VidmapGet),
        ("chain.visible_ns", Sp::ChainVisible),
        ("buffer.with_page_hit_ns", Sp::BufferWithPage),
    ] {
        r.pct(Kind::Layer, name, span_p50(sp), 1.0, "ns");
    }
    r.ratio(
        Kind::Layer,
        "index.range_ns_per_key",
        Ratio::new(total(Sp::IndexRange), t.acc.range_keys as f64),
        "ns",
        "ns in index.range",
        "keys",
    );

    let c = &counts.counters;
    let a = &counts.local.acc;
    let commits = a.commits as f64;
    let per_commit = |r: &mut Report, name: &str, num: u64, what: &str| {
        r.ratio(Kind::Layer, name, Ratio::new(num as f64, commits), "count", what, "commits");
    };
    r.ratio(
        Kind::Layer,
        "chain.hops_per_read",
        Ratio::new(c.chain_versions as f64, c.chain_walks as f64),
        "count",
        "versions fetched",
        "chain walks",
    );
    r.value(
        Kind::Layer,
        "chain.hops_max",
        c.chain_max as f64,
        "count",
        "longest chain walk of the run".into(),
    );
    r.ratio(
        Kind::Layer,
        "txn.memo_hit_ratio",
        Ratio::new(c.memo_hits as f64, (c.memo_hits + c.memo_misses) as f64),
        "ratio",
        "memo hits",
        "visibility checks",
    );
    r.ratio(
        Kind::Layer,
        "txn.conflicts_per_attempt",
        Ratio::new(c.write_conflicts as f64, a.attempts as f64),
        "ratio",
        "write conflicts",
        "attempts",
    );
    let lookups = c.buffer_hits + c.buffer_misses;
    r.ratio(
        Kind::Layer,
        "buffer.hit_ratio",
        Ratio::new(c.buffer_hits as f64, lookups as f64),
        "ratio",
        "hits",
        "lookups",
    );
    per_commit(r, "buffer.pages_per_commit", lookups, "page lookups");
    per_commit(r, "buffer.misses_per_commit", c.buffer_misses, "misses");
    per_commit(r, "buffer.evictions_per_commit", c.evictions, "evictions");
    per_commit(r, "buffer.eviction_writes_per_commit", c.eviction_writes, "eviction writes");
    per_commit(r, "wal.forces_per_commit", c.wal_forces, "forces");
    per_commit(r, "wal.bytes_per_commit", c.wal_bytes, "WAL bytes");
    r.ratio(
        Kind::Layer,
        "wal.group_size_mean",
        Ratio::new(c.wal_group_commits as f64, c.wal_groups as f64),
        "count",
        "commit records forced",
        "forces carrying commits",
    );
    per_commit(r, "append.pages_sealed_per_commit", c.sealed_pages, "pages sealed");
    per_commit(
        r,
        "device.data_write_pages_per_commit",
        c.data.host_write_pages,
        "data pages written",
    );
    per_commit(
        r,
        "device.wal_write_pages_per_commit",
        c.wal_dev.host_write_pages,
        "WAL pages written",
    );
    r.value(
        Kind::Layer,
        "device.erases",
        c.data.erases as f64,
        "count",
        "data-device erases".into(),
    );
    per_commit(r, "device.read_pages_per_commit", c.data.host_read_pages, "data pages read");

    for (name, q) in [("gc.slice_ns_p50", 0.5), ("gc.slice_ns_p99", 0.99)] {
        r.pct(Kind::Layer, name, timed.gc.slice_ns.pct(q), 1.0, "ns");
    }
    let g = &counts.gc.stats;
    r.ratio(
        Kind::Layer,
        "gc.pages_reclaimed_per_s",
        Ratio::new(g.pages_reclaimed as f64, counts.wall_s),
        "1/s",
        "pages reclaimed",
        "s",
    );
    r.value(
        Kind::Layer,
        "gc.backlog_pages",
        counts.gc.backlog_end as f64,
        "count",
        "victims parked at the end".into(),
    );
    r.ratio(
        Kind::Layer,
        "gc.relocated_per_reclaimed_page",
        Ratio::new(g.versions_relocated as f64, g.pages_reclaimed as f64),
        "count",
        "versions relocated",
        "pages reclaimed",
    );
    r.value(Kind::Layer, "checkpoint.runs", c.ckpt_runs as f64, "count", "checkpoints".into());
    r.ratio(
        Kind::Layer,
        "checkpoint.pages_flushed_per_run",
        Ratio::new(c.ckpt_pages as f64, c.ckpt_runs as f64),
        "count",
        "pages flushed",
        "checkpoints",
    );
    r.value(
        Kind::Layer,
        "vidmap.memory_mb",
        vidmap_bytes as f64 / (1024.0 * 1024.0),
        "MB",
        format!("{vidmap_bytes} B"),
    );
    r.value(
        Kind::Layer,
        "admission.delayed",
        (c.admission_delayed + timed.counters.admission_delayed) as f64,
        "count",
        "begins delayed by the admission gate".into(),
    );
    let late = counts.updater_late_ns.as_ref().map(|s| s.pct(0.99));
    match late {
        Some(p) => r.pct(Kind::Layer, "workload.updater_late_p99_us", p, 1e-3, "us"),
        None => r.value(
            Kind::Layer,
            "workload.updater_late_p99_us",
            0.0,
            "us",
            "no open-loop updater".into(),
        ),
    }
    // Traced and untraced transactions interleave in the traced phase,
    // so their mean latencies compare like with like.
    let (on, off) = (&t.acc.traced_txn_ns, &t.acc.untraced_txn_ns);
    r.ratio(
        Kind::Layer,
        "trace.overhead_pct",
        Ratio::new((on.mean() - off.mean()) * 100.0, off.mean()),
        "%",
        &format!("x100 (mean ns of {} traced - {} untraced txns)", on.count(), off.count()),
        "mean ns untraced",
    );
}

/// Adds a table of span self time to the report's notes.
pub fn span_table(r: &mut Report, timed: &Local) {
    r.notes.push(format!(
        "-- spans (traced phase)\n{:<20} {:>10} {:>12} {:>12} {:>10}",
        "span", "count", "total_ms", "self_ms", "p50_ns"
    ));
    for sp in Sp::ALL {
        let a = timed.span(sp);
        if a.dur.count() == 0 {
            continue;
        }
        r.notes.push(format!(
            "{:<20} {:>10} {:>12.3} {:>12.3} {:>10}",
            sp.name(),
            a.dur.count(),
            a.dur.total() as f64 / 1e6,
            a.self_ns as f64 / 1e6,
            a.dur.pct(0.5).value
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(steal: f64) -> Window {
        Window {
            wall_s: 1.0,
            commits: 1,
            rows_read: 1,
            ro: Samples::with_cap(4),
            rw: Samples::with_cap(4),
            steal: Ratio::new(steal, 100.0),
        }
    }

    #[test]
    fn the_most_stolen_third_of_the_windows_is_left_out() {
        let steals = [0.0, 9.0, 1.0, 0.0, 30.0, 2.0, 0.0];
        let windows: Vec<Window> = steals.iter().map(|&s| window(s)).collect();
        let kept: Vec<f64> = quietest(&windows).iter().map(|w| w.steal.num).collect();
        assert_eq!(kept, [0.0, 0.0, 0.0, 1.0, 2.0], "7 windows keep 5");
        assert_eq!(quietest(&windows[..2]).len(), 2, "fewer than 3 windows keep all");
    }

    #[test]
    fn timing_steal_is_that_of_the_kept_windows() {
        let windows: Vec<Window> = [4.0, 40.0, 2.0].iter().map(|&s| window(s)).collect();
        crate::probe::start_thread(false);
        let local = crate::probe::finish_thread();
        let total = Phase::new(1.0, local, Counters::default(), Ratio::new(0.0, 0.0));
        let mut r = Report::default();
        let mut spec = E2eSpec {
            ro_tail_q: 0.5,
            rw_tail_q: 0.5,
            setup_s: &[1.0],
            space: Ratio::new(1.0, 1.0),
            windows_alike: true,
        };
        end_to_end(&mut r, &windows, &total, &spec);
        assert_eq!(r.timing_steal, Some(Ratio::new(6.0, 200.0)));
        spec.windows_alike = false;
        end_to_end(&mut r, &windows, &total, &spec);
        assert_eq!(r.timing_steal, Some(Ratio::new(46.0, 300.0)), "all windows kept");
    }
}
