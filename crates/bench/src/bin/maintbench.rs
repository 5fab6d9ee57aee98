//! **Online maintenance pricing** — foreground tail latency vs.
//! background GC/scrub/checkpoint pressure.
//!
//! The maintenance scheduler relocates live versions, probes sealed
//! pages and takes WAL-paced fuzzy checkpoints *while* terminal threads
//! commit. This bench prices that interference: it drives the same
//! 8-thread update-heavy workload with maintenance OFF (baseline) and
//! ON at several token-bucket throttle levels, and reports the p50 /
//! p99 / p99.9 commit-latency deltas plus the page-reclaim rate each
//! throttle buys.
//!
//! Acceptance gate (asserted in-process): at the **default** throttle
//! (`DEFAULT_MAINT_PAGES_PER_SEC`) the maintenance-ON p99 commit
//! latency must stay within 20% of the OFF baseline while reclaiming
//! pages at a nonzero rate. The OFF/ON-default pair is re-measured up
//! to four times before the gate is declared failed, since a single
//! noisy scheduling hiccup on a shared CI box should not fail the run.
//!
//! ```text
//! cargo run --release -p sias-bench --bin maintbench \
//!     [-- --threads 8 --txns 300 --quick --seed 42 --metrics-out m.json]
//! ```
//!
//! Writes `results/BENCH_maintenance.json`.

use std::sync::Arc;

use sias_bench::{arg_value, write_results, ObsArgs};
use sias_core::{MaintenanceConfig, SiasDb};
use sias_storage::{StorageConfig, WalConfig, DEFAULT_MAINT_PAGES_PER_SEC};
use sias_txn::MvccEngine;
use sias_workload::{drive_threaded, drive_threaded_with_maintenance, ThreadedConfig};

/// WAL force latency (µs of real time per device force), matching the
/// scaling bench: every durable commit pays it, so commit latency is
/// device-bound the way the paper's flash experiments are.
const FORCE_SLEEP_US: u64 = 150;

/// Gate: ON p99 at the default throttle must stay within this factor of
/// the OFF baseline.
const P99_LIMIT: f64 = 1.20;

/// Gate attempts before the tail-latency regression is declared real.
const MAX_ATTEMPTS: u32 = 4;

struct Cell {
    label: &'static str,
    /// Token-bucket refill (pages/s); `None` = maintenance off,
    /// `Some(0)` = unthrottled.
    pages_per_sec: Option<u64>,
    committed: u64,
    aborted: u64,
    conflicts: u64,
    wall_secs: f64,
    commits_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    gc_pages_examined: u64,
    gc_pages_reclaimed: u64,
    gc_versions_relocated: u64,
    scrub_blocks: u64,
    paced_ckpts: u64,
    reclaimed_pages_per_sec: f64,
    maint_ticks: u64,
    maint_errors: u64,
}

fn storage_cfg() -> StorageConfig {
    StorageConfig::in_memory().with_wal_config(WalConfig {
        group_timeout_ticks: 64,
        max_batch: 64,
        force_sleep_us: FORCE_SLEEP_US,
    })
}

fn run_cell(
    label: &'static str,
    throttle: Option<u64>,
    tcfg: &ThreadedConfig,
) -> (Cell, sias_obs::MetricsSnapshot) {
    // A fresh engine per cell: the commit-latency histogram and the
    // core.gc.* counters live on the engine's registry, so reusing a
    // db would smear cells together.
    let db = Arc::new(SiasDb::open(storage_cfg()));
    let (run, totals) = match throttle {
        None => (drive_threaded(db.as_ref(), tcfg), None),
        Some(pps) => {
            let maint = MaintenanceConfig::for_db(&db).with_pages_per_sec(pps);
            let (run, totals) = drive_threaded_with_maintenance(&db, tcfg, maint);
            (run, Some(totals))
        }
    };
    let hist =
        db.obs_registry().expect("sias registry").histogram("workload.threaded.commit_latency");
    let snap = db.metrics_snapshot();
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    let wall = run.wall.as_secs_f64();
    let reclaimed = c("core.gc.pages_reclaimed");
    let cell = Cell {
        label,
        pages_per_sec: throttle,
        committed: run.committed,
        aborted: run.aborted,
        conflicts: run.conflicts,
        wall_secs: wall,
        commits_per_sec: run.commits_per_sec(),
        p50_us: hist.quantile(0.50) as f64 / 1_000.0,
        p99_us: hist.quantile(0.99) as f64 / 1_000.0,
        p999_us: hist.quantile(0.999) as f64 / 1_000.0,
        gc_pages_examined: c("core.gc.pages_examined"),
        gc_pages_reclaimed: reclaimed,
        gc_versions_relocated: c("core.gc.versions_relocated"),
        scrub_blocks: c("storage.scrub.scanned"),
        paced_ckpts: c("storage.ckpt.paced_runs"),
        reclaimed_pages_per_sec: if wall > 0.0 { reclaimed as f64 / wall } else { 0.0 },
        maint_ticks: totals.map(|t| t.ticks).unwrap_or(0),
        maint_errors: totals.map(|t| t.errors).unwrap_or(0),
    };
    (cell, snap)
}

fn print_cell(c: &Cell) {
    println!(
        "{:<12} {:>9} {:>9} {:>9.3} {:>11.0} {:>9.0} {:>9.0} {:>9.0} {:>9} {:>9.1} {:>7}",
        c.label,
        c.pages_per_sec.map(|p| p.to_string()).unwrap_or_else(|| "-".into()),
        c.committed,
        c.wall_secs,
        c.commits_per_sec,
        c.p50_us,
        c.p99_us,
        c.p999_us,
        c.gc_pages_reclaimed,
        c.reclaimed_pages_per_sec,
        c.maint_ticks,
    );
}

fn gate_ok(off: &Cell, on: &Cell) -> bool {
    on.p99_us <= off.p99_us * P99_LIMIT && on.gc_pages_reclaimed > 0
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let obs_args = ObsArgs::parse(&args);
    let quick = args.iter().any(|a| a == "--quick");
    let threads: usize = arg_value(&args, "--threads").and_then(|v| v.parse().ok()).unwrap_or(8);
    let txns_per_thread: usize = arg_value(&args, "--txns")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 160 } else { 300 });
    let seed: u64 = arg_value(&args, "--seed").and_then(|v| v.parse().ok()).unwrap_or(42);

    let tcfg = ThreadedConfig {
        threads,
        txns_per_thread,
        keys: 256,
        ops_per_txn: 4,
        update_pct: 60,
        abort_ppm: 0,
        seed,
        serializable: false,
        constraint_pairs: false,
    };

    println!(
        "maintbench: {threads} threads x {txns_per_thread} txns, update_pct 60, \
         force latency {FORCE_SLEEP_US} us, default throttle {DEFAULT_MAINT_PAGES_PER_SEC} pages/s"
    );
    println!(
        "{:<12} {:>9} {:>9} {:>9} {:>11} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7}",
        "cell",
        "pages/s",
        "commits",
        "wall(s)",
        "commits/s",
        "p50(us)",
        "p99(us)",
        "p999(us)",
        "reclaimed",
        "recl/s",
        "ticks"
    );

    // Warmup cell, discarded: the first run in a process pays one-time
    // costs (page-cache, allocator arenas) that would otherwise inflate
    // whichever measured cell happens to go first.
    let warm_cfg = ThreadedConfig { txns_per_thread: txns_per_thread / 4, ..tcfg.clone() };
    let _ = run_cell("warmup", None, &warm_cfg);

    // Gate pair first: OFF baseline vs ON at the configured default
    // throttle, re-measured as a pair on a noisy miss.
    let mut attempts = 1u32;
    let (mut off, mut snap_off) = run_cell("maint-off", None, &tcfg);
    let (mut on_def, mut snap_def) =
        run_cell("maint-default", Some(DEFAULT_MAINT_PAGES_PER_SEC), &tcfg);
    while !gate_ok(&off, &on_def) && attempts < MAX_ATTEMPTS {
        attempts += 1;
        println!(
            "gate miss (p99 off {:.0} us, on {:.0} us, reclaimed {}), re-measuring pair \
             (attempt {attempts}/{MAX_ATTEMPTS})",
            off.p99_us, on_def.p99_us, on_def.gc_pages_reclaimed
        );
        let o = run_cell("maint-off", None, &tcfg);
        off = o.0;
        snap_off = o.1;
        let d = run_cell("maint-default", Some(DEFAULT_MAINT_PAGES_PER_SEC), &tcfg);
        on_def = d.0;
        snap_def = d.1;
    }
    print_cell(&off);
    print_cell(&on_def);

    // The rest of the sweep: a tight throttle (maintenance starved) and
    // an unthrottled run (maintenance greedy) bracket the default.
    let (on_tight, snap_tight) = run_cell("maint-tight", Some(512), &tcfg);
    print_cell(&on_tight);
    let (on_greedy, snap_greedy) = run_cell("maint-greedy", Some(0), &tcfg);
    print_cell(&on_greedy);

    let p99_ratio = if off.p99_us > 0.0 { on_def.p99_us / off.p99_us } else { f64::INFINITY };
    let passed = gate_ok(&off, &on_def);
    println!(
        "gate: ON@default p99 {:.0} us vs OFF {:.0} us ({:.3}x, limit {P99_LIMIT}x), \
         {} pages reclaimed ({:.1}/s) -> {}",
        on_def.p99_us,
        off.p99_us,
        p99_ratio,
        on_def.gc_pages_reclaimed,
        on_def.reclaimed_pages_per_sec,
        if passed { "PASS" } else { "FAIL" }
    );

    let cells = [&off, &on_def, &on_tight, &on_greedy];
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"config\": {{\"threads\": {threads}, \"txns_per_thread\": {txns_per_thread}, \
         \"keys\": 256, \"ops_per_txn\": 4, \"update_pct\": 60, \"seed\": {seed}, \
         \"force_sleep_us\": {FORCE_SLEEP_US}, \
         \"default_pages_per_sec\": {DEFAULT_MAINT_PAGES_PER_SEC}, \"quick\": {quick}}},\n"
    ));
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"cell\": \"{}\", \"pages_per_sec\": {}, \"committed\": {}, \
             \"aborted\": {}, \"conflicts\": {}, \"wall_secs\": {:.6}, \
             \"commits_per_sec\": {:.1}, \"commit_p50_us\": {:.1}, \
             \"commit_p99_us\": {:.1}, \"commit_p999_us\": {:.1}, \
             \"gc_pages_examined\": {}, \"gc_pages_reclaimed\": {}, \
             \"gc_versions_relocated\": {}, \"scrub_blocks\": {}, \
             \"paced_checkpoints\": {}, \"reclaimed_pages_per_sec\": {:.2}, \
             \"maint_ticks\": {}, \"maint_errors\": {}}}{}\n",
            c.label,
            c.pages_per_sec.map(|p| p.to_string()).unwrap_or_else(|| "null".into()),
            c.committed,
            c.aborted,
            c.conflicts,
            c.wall_secs,
            c.commits_per_sec,
            c.p50_us,
            c.p99_us,
            c.p999_us,
            c.gc_pages_examined,
            c.gc_pages_reclaimed,
            c.gc_versions_relocated,
            c.scrub_blocks,
            c.paced_ckpts,
            c.reclaimed_pages_per_sec,
            c.maint_ticks,
            c.maint_errors,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"gate\": {{\"p99_off_us\": {:.1}, \"p99_on_default_us\": {:.1}, \
         \"p99_ratio\": {:.4}, \"p99_limit\": {P99_LIMIT}, \
         \"reclaimed_pages_per_sec_on_default\": {:.2}, \"attempts\": {attempts}, \
         \"passed\": {passed}}}\n",
        off.p99_us, on_def.p99_us, p99_ratio, on_def.reclaimed_pages_per_sec
    ));
    json.push_str("}\n");
    let path = write_results("BENCH_maintenance.json", &json);
    println!("wrote {}", path.display());

    if let Some(p) = obs_args.dump_metrics(&[
        ("maint-off".to_string(), snap_off),
        ("maint-default".to_string(), snap_def),
        ("maint-tight".to_string(), snap_tight),
        ("maint-greedy".to_string(), snap_greedy),
    ]) {
        println!("wrote {}", p.display());
    }

    assert!(
        passed,
        "maintenance-on p99 {:.0} us exceeds {:.0}% of off-baseline {:.0} us \
         (or zero pages reclaimed: {}) after {attempts} attempts",
        on_def.p99_us,
        P99_LIMIT * 100.0,
        off.p99_us,
        on_def.gc_pages_reclaimed
    );
}
