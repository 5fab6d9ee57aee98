//! scan-churn: whole-table reports against an open-loop updater.
//!
//! One closed-loop report client and one open-loop updater share a
//! table of 5k keys on the in-memory device. Each report is a
//! read-only transaction that scans the whole table several times in
//! one snapshot and checks every row. The updater issues updates at a
//! fixed rate, half of them to a hot 1% of the keys, and runs a GC
//! slice in-band every few commits; its latency is charged from each
//! update's due time, so a stall delays every update queued behind it.
//! This puts the range-scan path, chain hops under aged snapshots and
//! GC on the critical path, with little commit overhead, and a fixed
//! update rate keeps chain growth independent of the engine's speed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use sias_common::{BlockId, RelId, SiasResult};
use sias_core::{GcSliceOpts, SiasDb};
use sias_storage::StorageConfig;
use sias_txn::MvccEngine;
use sias_workload::WriteTag;

use crate::counters::{relation_pages, vidmap_bytes, Counters};
use crate::kvtable::{self, Rng};
use crate::metrics::{self, E2eSpec, GcRun, Phase, Window};
use crate::probe::{self, retryable, Local, Probe, Sp};
use crate::report::{Kind, Report};
use crate::stats::{Ratio, Samples};
use crate::steal::StealMeter;
use crate::{payload, Run};

/// scan-churn parameters.
#[derive(Clone, Debug)]
pub struct ScanConfig {
    /// Keys in the table.
    pub keys: u64,
    /// Keys in the hot set (spread evenly over the key space).
    pub hot_keys: u64,
    /// Whole-table scans per report transaction.
    pub scans_per_report: usize,
    /// Updates the updater issues per second.
    pub update_rate: f64,
    /// A GC slice runs after every this many updater commits.
    pub gc_every: u64,
    /// Reports per measured window of an untraced run. Each window runs
    /// on a freshly loaded table and lasts until its reports are done,
    /// so every window leaves the same number of reports beyond its
    /// tail, however fast the machine runs.
    pub reports_per_window: u64,
}

impl ScanConfig {
    /// The benchmark's configuration.
    pub fn standard() -> Self {
        ScanConfig {
            keys: 5_000,
            hot_keys: 50,
            scans_per_report: 3,
            update_rate: 2_000.0,
            gc_every: 16,
            reports_per_window: 200,
        }
    }

    /// A configuration small enough for a unit test. Its windows of
    /// about 0.15 s still leave ten samples beyond each tail.
    pub fn tiny() -> Self {
        ScanConfig {
            keys: 400,
            hot_keys: 4,
            scans_per_report: 2,
            update_rate: 4_000.0,
            gc_every: 16,
            reports_per_window: 500,
        }
    }
}

/// Pages a GC slice examines at most.
const GC_MAX_PAGES: usize = 2;
/// Least share of the target update rate a valid run must achieve.
const MIN_RATE_SHARE: f64 = 0.98;
/// Fewest windows an untraced run measures, however short it is asked
/// to be.
const MIN_WINDOWS: u64 = 3;

/// When a measured phase ends.
#[derive(Clone, Copy, Debug)]
enum Stop {
    /// Once the report client has completed this many reports.
    Reports(u64),
    /// Once this much time has passed (and one report is done).
    After(Duration),
}

/// Runs scan-churn for about `seconds` and reports it.
pub fn run(cfg: &ScanConfig, seed: u64, seconds: f64, trace: bool) -> Run {
    let mut report = Report::default();
    match run_inner(cfg, seed, seconds, trace, &mut report) {
        Ok(spans) => Run { report, spans },
        Err(e) => {
            report.fail(format!("scan-churn: {e}"));
            Run { report, spans: None }
        }
    }
}

fn setup(cfg: &ScanConfig) -> SiasResult<(SiasDb, RelId, f64)> {
    let t0 = Instant::now();
    let db = SiasDb::open(StorageConfig::in_memory());
    let (rel, _) = kvtable::load(&db, "scan", cfg.keys)?;
    Ok((db, rel, t0.elapsed().as_secs_f64()))
}

fn run_inner(
    cfg: &ScanConfig,
    seed: u64,
    seconds: f64,
    trace: bool,
    report: &mut Report,
) -> SiasResult<Option<Local>> {
    if !trace {
        // Each window loads its own table, as each kv-point round does.
        // On one shared table a run's windows all sat at one level, and
        // that level differed from run to run; a median over tables
        // evens it out. Windows repeat until the measuring time is spent.
        let start = Instant::now();
        let budget = Duration::from_secs_f64(seconds);
        let mut setups = Vec::new();
        let mut spaces = Vec::new();
        let mut windows = Vec::new();
        let mut total: Option<Phase> = None;
        let stop = Stop::Reports(cfg.reports_per_window);
        // An unmeasured window first: a process's first window ran about
        // 1.5x as long for its reports as the ones after it. Its output
        // checks still count.
        let (db, rel, _) = setup(cfg)?;
        let warmup = measure(cfg, &db, rel, (seed, u64::MAX), stop, false, report);
        report.absorb(&warmup.local.acc);
        drop(db);
        let mut w = 0;
        while w < MIN_WINDOWS || start.elapsed() < budget {
            let (db, rel, s) = setup(cfg)?;
            setups.push(s);
            let phase = measure(cfg, &db, rel, (seed, w), stop, false, report);
            w += 1;
            windows.push(Window::of(&phase, "ro", "rw"));
            spaces.push(space_amp(cfg, &db));
            match total.as_mut() {
                Some(t) => t.merge(&phase),
                None => total = Some(phase),
            }
        }
        let phase = total.expect("at least one window");
        report.attempted = phase.local.acc.attempts;
        report.absorb(&phase.local.acc);
        // Space of the median window (all windows run the same reports).
        spaces.sort_by(|a, b| a.value().total_cmp(&b.value()));
        let space = spaces[spaces.len() / 2];
        metrics::end_to_end(
            report,
            &windows,
            &phase,
            &E2eSpec {
                ro_tail_q: 0.9,
                rw_tail_q: 0.9,
                setup_s: &setups,
                space,
                windows_alike: true,
            },
        );
        figures(report, &phase);
        return Ok(None);
    }
    // Traced run: an untraced half for counts, a traced half for timings,
    // each on a fresh table.
    let half = Stop::After(Duration::from_secs_f64(seconds / 2.0));
    let (db, rel, _) = setup(cfg)?;
    let plain = measure(cfg, &db, rel, (seed, 0), half, false, report);
    drop(db);
    let (db, rel, _) = setup(cfg)?;
    let traced = measure(cfg, &db, rel, (seed, 1), half, true, report);
    report.attempted = plain.local.acc.attempts;
    report.absorb(&plain.local.acc);
    report.absorb(&traced.local.acc);
    metrics::per_layer(report, &plain, &traced, vidmap_bytes(&db));
    metrics::span_table(report, &traced.local);
    Ok(Some(traced.local))
}

/// Relation bytes over the table's live payload bytes.
fn space_amp(cfg: &ScanConfig, db: &SiasDb) -> Ratio {
    Ratio::new(
        (relation_pages(db) * sias_common::PAGE_SIZE as u64) as f64,
        (cfg.keys * payload::PAYLOAD_LEN as u64) as f64,
    )
}

/// Workload figures printed beside the end-to-end metrics.
fn figures(r: &mut Report, p: &Phase) {
    let acc = &p.local.acc;
    r.ratio(
        Kind::Info,
        "scan_rows_per_s",
        Ratio::new(acc.scan_rows as f64, p.wall_s),
        "1/s",
        "rows scanned",
        "s",
    );
    let reports = acc.class("ro");
    r.pct(Kind::Info, "report_p50_ms", reports.pct(0.5), 1e-6, "ms");
    r.pct(Kind::Info, "report_p90_ms", reports.pct(0.9), 1e-6, "ms");
    if let Some(late) = &p.updater_late_ns {
        r.pct(Kind::Info, "updater_late_p50_us", late.pct(0.5), 1e-3, "us");
        r.pct(Kind::Info, "updater_late_p99_us", late.pct(0.99), 1e-3, "us");
    }
    let g = &p.gc.stats;
    r.value(
        Kind::Info,
        "gc_pages_reclaimed",
        g.pages_reclaimed as f64,
        "count",
        format!("{} slices, {} versions relocated", p.gc.slice_ns.count(), g.versions_relocated),
    );
}

/// Outcome of the updater thread.
struct Updates {
    lat: Samples,
    late: Samples,
    gc: GcRun,
    done: u64,
    end: Instant,
}

/// One measured phase: report client and updater until `stop`; the
/// updater draws keys from stream `stream` = (seed, phase index).
fn measure(
    cfg: &ScanConfig,
    db: &SiasDb,
    rel: RelId,
    stream: (u64, u64),
    stop: Stop,
    traced: bool,
    report: &mut Report,
) -> Phase {
    let before = Counters::capture(db);
    let probe = Probe::new(db);
    let start = Instant::now();
    let steal = StealMeter::start();
    let (want, deadline) = match stop {
        Stop::Reports(n) => (n, None),
        Stop::After(d) => (1, Some(start + d)),
    };
    // When the report client finished, in ns from `start`.
    let stop_ns = AtomicU64::new(u64::MAX);
    // The report client runs on the calling thread and only the updater
    // gets a thread of its own. With two fresh threads per window, the
    // allocator's per-thread arenas could trade roles between windows,
    // and each then grew to hold the table: peak RSS came out 34 or 39
    // MB from run to run.
    let ((rep_local, rep_reports, span), (upd_local, upd)) = std::thread::scope(|s| {
        let probe = &probe;
        let stop_ns = &stop_ns;
        let updater = s.spawn(move || {
            probe::start_thread(traced);
            let upd = updater(probe, rel, cfg, stream, start, stop_ns);
            (probe::finish_thread(), upd)
        });
        probe::start_thread(traced);
        let mut reports = 0u64;
        while reports < want || deadline.is_some_and(|d| Instant::now() < d) {
            report_txn(probe, rel, cfg);
            reports += 1;
        }
        let span = start.elapsed();
        stop_ns.store(span.as_nanos() as u64, Ordering::Release);
        let upd = updater.join().expect("updater thread panicked");
        ((probe::finish_thread(), reports, span), upd)
    });
    let wall_s = start.elapsed().as_secs_f64();
    let steal = steal.since();
    let counters = Counters::capture(db).since(&before);
    let mut local = rep_local;
    local.merge(&upd_local);

    // Open-loop bookkeeping: the updater must have kept its rate while
    // the reports ran, finishing every update due by then.
    let target = cfg.update_rate;
    let achieved = upd.done as f64 / upd.end.duration_since(start).max(span).as_secs_f64();
    report.notes.push(format!(
        "scan-churn{}: {rep_reports} reports; updater {} updates, {achieved:.1}/s of {target}/s target",
        if traced { " (traced half)" } else { "" },
        upd.done,
    ));
    if achieved < MIN_RATE_SHARE * target {
        report.fail(format!(
            "open-loop updater achieved {achieved:.1} updates/s, below {:.0}% of its {target}/s target",
            MIN_RATE_SHARE * 100.0
        ));
    }
    if rep_reports == 0 {
        report.fail("no report completed".into());
    }
    let mut gc = upd.gc;
    gc.backlog_end = db.gc_backlog() as u64;
    let mut phase = Phase::new(wall_s, local, counters, steal);
    phase.gc = gc;
    phase.updater_lat_ns = Some(upd.lat);
    phase.updater_late_ns = Some(upd.late);
    phase
}

/// One report: several whole-table scans in one snapshot, each checked
/// to return exactly the table's rows.
fn report_txn(probe: &Probe, rel: RelId, cfg: &ScanConfig) {
    let t = probe.begin();
    let mut scans = Vec::with_capacity(cfg.scans_per_report);
    for _ in 0..cfg.scans_per_report {
        match probe.scan_range(&t, rel, 0, u64::MAX) {
            Ok(rows) => scans.push(rows),
            Err(e) => {
                probe::fail(format!("report scan failed: {e}"));
                probe.abort(t);
                return;
            }
        }
    }
    if let Err(e) = probe.commit(t) {
        probe::fail(format!("report commit failed: {e}"));
    }
    // Checked after commit so the check's cost is not in the latency.
    for rows in &scans {
        if let Err(e) = check_report(rows, cfg.keys) {
            probe::fail(e);
        }
    }
}

/// Checks that a whole-table scan returned exactly keys `0..keys`, in
/// order, each with an intact payload of its own key.
pub fn check_report(rows: &[(u64, bytes::Bytes)], keys: u64) -> Result<(), String> {
    if rows.len() as u64 != keys {
        return Err(format!("report scan returned {} rows, table has {keys}", rows.len()));
    }
    for (i, (key, bytes)) in rows.iter().enumerate() {
        if *key != i as u64 || payload::decode_for(*key, bytes).is_none() {
            return Err(format!("report row {i} (key {key}) is not that key's payload"));
        }
    }
    Ok(())
}

/// The open-loop updater: one update due every `1 / update_rate`
/// seconds from `start` until the report client stops at `stop_ns`
/// (every update due before then is issued), each a read-modify-write
/// of one key, with an in-band GC slice every `gc_every` commits.
fn updater(
    probe: &Probe,
    rel: RelId,
    cfg: &ScanConfig,
    (seed, phase): (u64, u64),
    start: Instant,
    stop_ns: &AtomicU64,
) -> Updates {
    let db = probe.db();
    let mut rng = Rng::new(seed, 0x5ca7, phase);
    let opts = GcSliceOpts { max_pages: GC_MAX_PAGES, ..GcSliceOpts::default() };
    let mut cursor: BlockId = 0;
    let mut out = Updates {
        lat: Samples::with_cap(1 << 20),
        late: Samples::with_cap(1 << 20),
        gc: GcRun::default(),
        done: 0,
        end: start,
    };
    let hot_stride = (cfg.keys / cfg.hot_keys.max(1)).max(1);
    loop {
        let due_ns = (out.done as f64 / cfg.update_rate * 1e9) as u64;
        if !wait_until(start, due_ns, stop_ns) {
            break;
        }
        let due = start + Duration::from_nanos(due_ns);
        let begun = Instant::now();
        out.late.push(begun.duration_since(due).as_nanos() as u64);
        let key = if rng.next_u64() & 1 == 0 {
            rng.below(cfg.hot_keys) * hot_stride
        } else {
            rng.below(cfg.keys)
        };
        while !update_once(probe, rel, key) {}
        let done = Instant::now();
        out.lat.push(done.duration_since(due).as_nanos() as u64);
        out.done += 1;
        out.end = done;
        if out.done.is_multiple_of(cfg.gc_every) {
            probe::enter(Sp::GcSlice);
            let t = Instant::now();
            let r = db.vacuum_slice(rel, &mut cursor, &opts);
            out.gc.slice_ns.push(t.elapsed().as_nanos() as u64);
            probe::exit(Sp::GcSlice);
            match r {
                Ok(s) => out.gc.stats.merge(s),
                Err(e) => probe::fail(format!("GC slice failed: {e}")),
            }
        }
    }
    out
}

/// Spins until `due_ns` after `start`; false if the update is due no
/// earlier than the stop at `stop_ns`. The updater keeps
/// its core rather than sleeping: on a virtual machine a sleeping
/// thread's wake-up waits for the hypervisor to run its idle CPU again.
/// With a sleep before each update, the runs read 3-16% CPU steal
/// against under 3.5% for the same runs spinning, and that delay shows
/// up as lateness the engine did not cause.
fn wait_until(start: Instant, due_ns: u64, stop_ns: &AtomicU64) -> bool {
    loop {
        if due_ns >= stop_ns.load(Ordering::Acquire) {
            return false;
        }
        if start.elapsed().as_nanos() as u64 >= due_ns {
            return true;
        }
        std::hint::spin_loop();
    }
}

/// One read-modify-write of `key`; false when the engine refused it and
/// it should be retried.
fn update_once(probe: &Probe, rel: RelId, key: u64) -> bool {
    let t = probe.begin();
    match probe.get(&t, rel, key) {
        Ok(Some(bytes)) if payload::decode_for(key, &bytes).is_some() => {}
        Ok(_) => probe::fail(format!("updater get({key}) did not return key {key}'s payload")),
        Err(e) => probe::fail(format!("updater get({key}) failed: {e}")),
    }
    let tag = WriteTag { xid: t.xid, seq: 0 };
    if let Err(e) = probe.update(&t, rel, key, &payload::encode(key, tag)) {
        probe.abort(t);
        if retryable(&e) {
            return false;
        }
        probe::fail(format!("updater update({key}) failed: {e}"));
        return true;
    }
    match probe.commit(t) {
        Ok(()) => true,
        Err(e) if retryable(&e) => false,
        Err(e) => {
            probe::fail(format!("updater commit failed: {e}"));
            true
        }
    }
}
