//! tpcc: the repository's discrete-event TPC-C driver, timed in wall
//! clock.
//!
//! 50 warehouses (the paper's Table 1 scale) on the simulated single
//! SSD behind a 1024-frame (8 MiB) buffer pool, SIAS with t2 flushing,
//! 500 terminals at zero think time, virtual-time bgwriter and
//! checkpoint ticks, all on one thread. This is the only workload whose
//! data outgrows the pool, so it covers misses, evictions, checkpoints,
//! device writes, inserts, deletes and range scans. The driver runs a
//! fixed virtual duration, which gives the paper's NOTPM and new-order
//! response time in virtual time beside the wall-clock cost of the same
//! transactions.
//!
//! A run drives an unmeasured warmup, then measures windows of equal
//! virtual time, each one driver call, the way scan-churn measures its
//! windows. A window's length is a whole number of checkpoint intervals
//! and each window opens with the bgwriter tick and checkpoint due at
//! its boundary, so the maintenance cadence is that of one long run.

use std::time::Instant;

use sias_core::SiasDb;
use sias_storage::StorageConfig;
use sias_txn::MvccEngine;
use sias_workload::{
    check_consistency, load, run_benchmark, BenchResult, DriverConfig, Tables, TpccConfig,
};

use crate::counters::{relation_pages, vidmap_bytes, Counters};
use crate::kvtable::Rng;
use crate::metrics::{self, E2eSpec, Phase, Window};
use crate::probe::{self, Classifier, Local, Probe, Shape};
use crate::report::{Kind, Report};
use crate::stats::{median_f64, Ratio};
use crate::steal::StealMeter;
use crate::Run;

/// tpcc parameters.
#[derive(Clone, Debug)]
pub struct TpccRun {
    /// Warehouses.
    pub warehouses: u32,
    /// Use the unit-test table sizes instead of the scaled ones.
    pub tiny_tables: bool,
    /// Buffer-pool frames.
    pub pool_frames: usize,
    /// Terminals.
    pub terminals: usize,
    /// Virtual seconds driven per wall second asked for.
    pub virtual_per_wall: f64,
    /// Virtual warmup before the measured windows, seconds.
    pub warmup_secs: u64,
    /// Virtual seconds between checkpoints.
    pub checkpoint_secs: u64,
    /// Set-ups per run (the last one is measured).
    pub setups: usize,
    /// Windows the measured virtual time is split into; timings are
    /// their medians.
    pub windows: u64,
}

impl TpccRun {
    /// The benchmark's configuration.
    pub fn standard() -> Self {
        TpccRun {
            warehouses: 50,
            tiny_tables: false,
            pool_frames: 1024,
            terminals: 500,
            virtual_per_wall: 2.0,
            warmup_secs: 3,
            checkpoint_secs: 5,
            setups: 3,
            windows: 6,
        }
    }

    /// A configuration small enough for a unit test. Run for 3 s, its
    /// windows leave ten samples beyond each tail.
    pub fn tiny() -> Self {
        TpccRun {
            warehouses: 2,
            tiny_tables: true,
            pool_frames: 64,
            terminals: 8,
            virtual_per_wall: 4.0,
            warmup_secs: 1,
            checkpoint_secs: 1,
            setups: 2,
            windows: 2,
        }
    }

    fn tables_cfg(&self, seed: u64) -> TpccConfig {
        let base = if self.tiny_tables {
            TpccConfig { warehouses: self.warehouses, ..TpccConfig::tiny() }
        } else {
            TpccConfig::scaled(self.warehouses)
        };
        base.with_seed(seed)
    }

    fn driver(&self, seed: u64, duration_secs: u64) -> DriverConfig {
        DriverConfig {
            terminals: self.terminals,
            duration_secs,
            warmup_secs: 0,
            cpu_cores: 4,
            bgwriter_interval_ms: 200,
            checkpoint_interval_secs: self.checkpoint_secs,
            think_scale: 0.0,
            seed,
            serializable: false,
        }
    }
}

/// Runs tpcc for about `seconds` of wall time and reports it.
pub fn run(cfg: &TpccRun, seed: u64, seconds: f64, trace: bool) -> Run {
    let mut report = Report::default();
    let spans = match run_inner(cfg, seed, seconds, trace, &mut report) {
        Ok(spans) => spans,
        Err(e) => {
            report.fail(format!("tpcc: {e}"));
            None
        }
    };
    Run { report, spans }
}

fn setup(cfg: &TpccRun, tcfg: &TpccConfig) -> sias_common::SiasResult<(SiasDb, Tables, f64)> {
    let t0 = Instant::now();
    let storage = StorageConfig::ssd().with_pool_frames(cfg.pool_frames);
    let db = SiasDb::open(storage);
    let tables = load(&db, tcfg)?;
    Ok((db, tables, t0.elapsed().as_secs_f64()))
}

/// One measured `run_benchmark` call with driver settings `dcfg`.
fn measure(
    db: &SiasDb,
    tables: &Tables,
    tcfg: &TpccConfig,
    dcfg: &DriverConfig,
    traced: bool,
    report: &mut Report,
) -> sias_common::SiasResult<(Phase, BenchResult)> {
    let before = Counters::capture(db);
    let probe = Probe::new(db).classify(classifier(*tables));
    probe::start_thread(traced);
    let started = Instant::now();
    let steal = StealMeter::start();
    // The bgwriter tick and checkpoint due at the window's boundary: a
    // driver call fires only those due strictly inside it.
    probe.maintenance(false);
    probe.maintenance(true);
    let res = run_benchmark(&probe, tables, tcfg, dcfg, &db.stack().clock);
    let wall_s = started.elapsed().as_secs_f64();
    let steal = steal.since();
    let local = probe::finish_thread();
    let res = res?;
    let counters = Counters::capture(db).since(&before);
    report.notes.push(format!(
        "tpcc{}: {wall_s:.2} wall s driving {} virtual s; {} commits, {} rollbacks, {} conflicts",
        if traced { " (traced)" } else { "" },
        dcfg.duration_secs,
        res.commits,
        res.rollbacks,
        res.conflicts,
    ));
    let probed = local.acc.class("new_order").count();
    if probed != res.new_order_commits {
        report.fail(format!(
            "classified {probed} committed new orders, the driver counted {}",
            res.new_order_commits
        ));
    }
    Ok((Phase::new(wall_s, local, counters, steal), res))
}

/// Names a committed TPC-C transaction by what it touched. Of the
/// writers only new-order writes STOCK and only payment writes HISTORY;
/// delivery writes neither. Of the read-only ones only order-status
/// reads CUSTOMER, and stock-level reads DISTRICT and ORDER_LINE; a
/// delivery that found nothing to deliver reads NEW_ORDER alone.
fn classifier(t: Tables) -> Classifier {
    Box::new(move |s: &Shape| {
        if s.wrote == 0 {
            if s.reads(t.customer) {
                "order_status"
            } else if s.reads(t.district) && s.reads(t.order_line) {
                "stock_level"
            } else {
                "delivery"
            }
        } else if s.writes(t.stock) {
            "new_order"
        } else if s.writes(t.history) {
            "payment"
        } else {
            "delivery"
        }
    })
}

/// The paper's virtual-time figures over the windows `res`, and the
/// wall-clock median of every transaction type.
fn figures(r: &mut Report, res: &[BenchResult], local: &Local) {
    let new_orders: u64 = res.iter().map(|b| b.new_order_commits).sum();
    let minutes: f64 = res.iter().map(|b| b.measured_secs).sum::<f64>() / 60.0;
    r.ratio(
        Kind::Info,
        "notpm",
        Ratio::new(new_orders as f64, minutes),
        "1/min",
        "new orders",
        "virtual min",
    );
    let p90s: Vec<f64> = res.iter().map(|b| b.p90_response_s).collect();
    r.value(
        Kind::Info,
        "new_order_p90_s",
        median_f64(&p90s),
        "s",
        format!("virtual time, median of {} windows' p90; n={new_orders}", res.len()),
    );
    for (class, lat) in &local.acc.lat {
        r.pct(Kind::Info, &format!("{class}_p50_us"), lat.pct(0.5), 1e-3, "us");
    }
}

fn run_inner(
    cfg: &TpccRun,
    seed: u64,
    seconds: f64,
    trace: bool,
    report: &mut Report,
) -> sias_common::SiasResult<Option<Local>> {
    // The driver seeds terminal i's splitmix64 stream with
    // `seed ^ i * 0x9E37_79B9_7F4A_7C15`. For a small seed that is nearly
    // `i * 0x9E37…`, the stream's own increment, so terminal i replays
    // terminal i-1's draws one step later and the whole run draws from
    // one short sequence: its transaction mix swings with the seed. A
    // seed spread over all 64 bits breaks the alignment. Each driver call
    // gets a stream of its own: one shared seed would replay the same
    // transactions in every window.
    let mixed = |stream: u64| Rng::new(seed, 0x7bcc, stream).next_u64();
    let tcfg = cfg.tables_cfg(mixed(0));
    let windows = cfg.windows.max(1);
    // Virtual seconds per window, a whole number of checkpoint intervals.
    let interval = cfg.checkpoint_secs.max(1);
    let budget = (seconds * cfg.virtual_per_wall).round() as u64;
    let window_secs = (budget / windows / interval).max(1) * interval;
    let mut setups = Vec::new();
    let mut last = None;
    let setups_wanted = if trace { 1 } else { cfg.setups.max(1) };
    for _ in 0..setups_wanted {
        drop(last.take());
        let (db, tables, s) = setup(cfg, &tcfg)?;
        setups.push(s);
        last = Some((db, tables));
    }
    let (db, tables) = last.expect("at least one set-up");
    let warmup_cfg = cfg.driver(mixed(1), cfg.warmup_secs);
    let warmup = run_benchmark(&db, &tables, &tcfg, &warmup_cfg, &db.stack().clock)?;
    report.notes.push(format!(
        "tpcc: {} virtual s of warmup, {} commits, not measured",
        cfg.warmup_secs, warmup.commits
    ));

    let spans = if !trace {
        let mut wins = Vec::new();
        let mut results = Vec::new();
        let mut total: Option<Phase> = None;
        for w in 1..=windows {
            let dcfg = cfg.driver(mixed(1 + w), window_secs);
            let (phase, res) = measure(&db, &tables, &tcfg, &dcfg, false, report)?;
            wins.push(Window::of(&phase, "stock_level", "new_order"));
            results.push(res);
            match total.as_mut() {
                Some(t) => t.merge(&phase),
                None => total = Some(phase),
            }
        }
        let phase = total.expect("at least one window");
        report.attempted = phase.local.acc.attempts;
        report.absorb(&phase.local.acc);
        let space = space_amp(&db, &tables)?;
        metrics::end_to_end(
            report,
            &wins,
            &phase,
            &E2eSpec {
                ro_tail_q: 0.9,
                rw_tail_q: 0.99,
                setup_s: &setups,
                space,
                windows_alike: false,
            },
        );
        figures(report, &results, &phase.local);
        None
    } else {
        // An untraced half for counts, then a traced half on the same
        // database for timings.
        let half = (windows / 2).max(1) * window_secs;
        let plain_cfg = cfg.driver(mixed(2), half);
        let (plain, _) = measure(&db, &tables, &tcfg, &plain_cfg, false, report)?;
        let traced_cfg = cfg.driver(mixed(3), half);
        let (traced, _) = measure(&db, &tables, &tcfg, &traced_cfg, true, report)?;
        report.attempted = plain.local.acc.attempts;
        report.absorb(&plain.local.acc);
        report.absorb(&traced.local.acc);
        metrics::per_layer(report, &plain, &traced, vidmap_bytes(&db));
        metrics::span_table(report, &traced.local);
        Some(traced.local)
    };
    for v in check_consistency(&db, &tables, &tcfg)? {
        report.fail(format!("TPC-C consistency {}: {}", v.condition, v.detail));
    }
    Ok(spans)
}

/// Relation bytes over the live payload bytes of all nine tables.
fn space_amp(db: &SiasDb, tables: &Tables) -> sias_common::SiasResult<Ratio> {
    let t = db.begin();
    let mut live = 0u64;
    for rel in [
        tables.warehouse,
        tables.district,
        tables.customer,
        tables.history,
        tables.new_order,
        tables.orders,
        tables.order_line,
        tables.item,
        tables.stock,
    ] {
        live +=
            db.scan_range(&t, rel, 0, u64::MAX)?.iter().map(|(_, b)| b.len() as u64).sum::<u64>();
    }
    db.commit(t)?;
    Ok(Ratio::new((relation_pages(db) * sias_common::PAGE_SIZE as u64) as f64, live as f64))
}
