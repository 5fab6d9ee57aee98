//! kv-point: closed-loop point reads and read-modify-writes.
//!
//! Two client threads, each sending its next transaction only when the
//! previous one has ended, over a table of 10k keys with 100-byte
//! payloads on the in-memory device (force per commit, no force sleep):
//! the run is CPU-bound. Half the transactions read four keys, half
//! read and update two. No GC runs and nothing scans, so the run prices
//! the per-transaction fixed costs: begin, commit and WAL force, B+-tree
//! probe, VID-map get, tuple lock and append.
//!
//! The run is a sequence of rounds. Each round loads a fresh table (one
//! set-up), runs a fixed number of transactions, checks the round's
//! history with the anomaly checker and records how much space the
//! round left behind. Fixed work per round keeps space and memory
//! independent of how fast the engine is; rounds repeat until the
//! measuring time is spent.

use std::time::{Duration, Instant};

use sias_common::SiasResult;
use sias_core::SiasDb;
use sias_storage::StorageConfig;
use sias_txn::MvccEngine;
use sias_workload::check::{HistOp, HistOutcome, History, TxnRecord};
use sias_workload::{check_anomalies, WriteTag};

use crate::counters::{relation_pages, vidmap_bytes, Counters};
use crate::kvtable::{self, Rng};
use crate::metrics::{self, E2eSpec, Phase, Window};
use crate::probe::{self, retryable, Local, Probe};
use crate::report::Report;
use crate::stats::Ratio;
use crate::steal::StealMeter;
use crate::{payload, Run};

/// kv-point parameters.
#[derive(Clone, Debug)]
pub struct KvConfig {
    /// Keys in the table.
    pub keys: u64,
    /// Transactions per thread per round.
    pub txns_per_thread: u64,
}

impl KvConfig {
    /// The benchmark's configuration.
    pub fn standard() -> Self {
        KvConfig { keys: 10_000, txns_per_thread: 20_000 }
    }

    /// A configuration small enough for a unit test, whose rounds still
    /// leave ten samples beyond each p99.
    pub fn tiny() -> Self {
        KvConfig { keys: 200, txns_per_thread: 1_300 }
    }
}

/// Client threads: one per core of the 2-core target machine.
const THREADS: usize = 2;
/// Reads per read-only transaction.
const RO_READS: usize = 4;
/// Keys read and updated per read-modify-write transaction.
const RW_KEYS: usize = 2;

struct Round {
    setup_s: f64,
    phase: Phase,
    space: Ratio,
    vidmap_bytes: u64,
}

/// Runs kv-point for about `seconds` and reports it.
pub fn run(cfg: &KvConfig, seed: u64, seconds: f64, trace: bool) -> Run {
    let mut report = Report::default();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut plain: Option<Phase> = None;
    let mut traced: Option<Phase> = None;
    let mut setups = Vec::new();
    let mut spaces = Vec::new();
    let mut windows = Vec::new();
    let mut vid_bytes = 0;
    let mut idx = 0u64;
    // Untraced runs need one round; traced runs alternate untraced and
    // traced rounds and need one of each.
    let min_rounds = if trace { 2 } else { 1 };
    while idx < min_rounds || start.elapsed() < budget {
        let traced_round = trace && idx % 2 == 1;
        match round(cfg, seed, idx, traced_round) {
            Ok(r) => {
                setups.push(r.setup_s);
                spaces.push(r.space);
                vid_bytes = vid_bytes.max(r.vidmap_bytes);
                if !traced_round {
                    windows.push(Window::of(&r.phase, "ro", "rw"));
                }
                let slot = if traced_round { &mut traced } else { &mut plain };
                match slot {
                    Some(p) => p.merge(&r.phase),
                    None => *slot = Some(r.phase),
                }
            }
            Err(e) => {
                report.fail(format!("round {idx}: {e}"));
                break;
            }
        }
        idx += 1;
    }
    let Some(plain) = plain else { return Run { report, spans: None } };
    report.attempted = plain.local.acc.attempts;
    report.absorb(&plain.local.acc);
    report.notes.push(format!(
        "kv-point: {idx} rounds of {} txns each",
        cfg.txns_per_thread * THREADS as u64
    ));
    // Space of the median round (all rounds do the same work).
    spaces.sort_by(|a, b| a.value().total_cmp(&b.value()));
    let space = spaces[spaces.len() / 2];
    if !trace {
        metrics::end_to_end(
            &mut report,
            &windows,
            &plain,
            &E2eSpec {
                ro_tail_q: 0.99,
                rw_tail_q: 0.99,
                setup_s: &setups,
                space,
                windows_alike: true,
            },
        );
        return Run { report, spans: None };
    }
    // A failed round ends the run early and may leave no traced round.
    let Some(traced) = traced else { return Run { report, spans: None } };
    report.absorb(&traced.local.acc);
    metrics::per_layer(&mut report, &plain, &traced, vid_bytes);
    metrics::span_table(&mut report, &traced.local);
    Run { report, spans: Some(traced.local) }
}

fn round(cfg: &KvConfig, seed: u64, idx: u64, traced: bool) -> SiasResult<Round> {
    let t0 = Instant::now();
    let db = SiasDb::open(StorageConfig::in_memory());
    let (rel, load_records) = kvtable::load(&db, "kv", cfg.keys)?;
    let setup_s = t0.elapsed().as_secs_f64();

    let before = Counters::capture(&db);
    let probe = Probe::new(&db);
    let start = Instant::now();
    let steal = StealMeter::start();
    let per_thread: Vec<(Local, Vec<TxnRecord>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|i| {
                let probe = &probe;
                s.spawn(move || {
                    probe::start_thread(traced);
                    let mut rng = Rng::new(seed, idx, i as u64);
                    let recs = client(probe, rel, cfg, &mut rng);
                    (probe::finish_thread(), recs)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("kv-point client thread panicked")).collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let steal = steal.since();
    let counters = Counters::capture(&db).since(&before);

    let mut history = History { txns: load_records, ..Default::default() };
    let mut local: Option<Local> = None;
    for (l, recs) in per_thread {
        history.txns.extend(recs);
        match local.as_mut() {
            Some(acc) => acc.merge(&l),
            None => local = Some(l),
        }
    }
    let mut local = local.expect("at least one client thread");
    history.version_order = kvtable::version_order(&db, rel, &history.committed())?;
    for v in check_anomalies(&history) {
        local.acc.fail(format!("anomaly {}: {}", v.condition, v.detail));
    }
    let space = Ratio::new(
        (relation_pages(&db) * sias_common::PAGE_SIZE as u64) as f64,
        (cfg.keys * payload::PAYLOAD_LEN as u64) as f64,
    );
    Ok(Round {
        setup_s,
        phase: Phase::new(wall_s, local, counters, steal),
        space,
        vidmap_bytes: vidmap_bytes(&db),
    })
}

/// One client thread's closed loop; returns its history records.
fn client(probe: &Probe, rel: sias_common::RelId, cfg: &KvConfig, rng: &mut Rng) -> Vec<TxnRecord> {
    let mut recs = Vec::with_capacity(cfg.txns_per_thread as usize + 64);
    for _ in 0..cfg.txns_per_thread {
        let read_only = rng.next_u64() & 1 == 0;
        let mut keys = Vec::with_capacity(RO_READS);
        let want = if read_only { RO_READS } else { RW_KEYS };
        while keys.len() < want {
            let k = rng.below(cfg.keys);
            // Distinct keys; ascending order makes the two tuple locks of
            // concurrent writers nest, so they cannot deadlock.
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        keys.sort_unstable();
        // Retry until the engine stops refusing (write conflicts).
        loop {
            let (rec, retry) = attempt(probe, rel, &keys, read_only);
            recs.push(rec);
            if !retry {
                break;
            }
        }
    }
    recs
}

/// One transaction attempt; returns its record and whether to retry.
fn attempt(
    probe: &Probe,
    rel: sias_common::RelId,
    keys: &[u64],
    read_only: bool,
) -> (TxnRecord, bool) {
    let t = probe.begin();
    let xid = t.xid;
    let mut ops = Vec::with_capacity(keys.len() * 2);
    let record = |ops, outcome| TxnRecord { xid, ops, outcome };
    for (seq, &key) in keys.iter().enumerate() {
        match probe.get(&t, rel, key) {
            Ok(Some(bytes)) => match payload::decode_for(key, &bytes) {
                Some(tag) => ops.push(HistOp::Read { key, observed: Some(tag) }),
                None => {
                    probe::fail(format!("get({key}) returned a payload that is not key {key}'s"))
                }
            },
            Ok(None) => probe::fail(format!("get({key}) found no row")),
            Err(e) => {
                probe::fail(format!("get({key}) failed: {e}"));
                probe.abort(t);
                return (record(ops, HistOutcome::Aborted), false);
            }
        }
        if read_only {
            continue;
        }
        let tag = WriteTag { xid, seq: seq as u32 };
        match probe.update(&t, rel, key, &payload::encode(key, tag)) {
            Ok(()) => ops.push(HistOp::Write { key, tag }),
            Err(e) => {
                let retry = retryable(&e);
                if !retry {
                    probe::fail(format!("update({key}) failed: {e}"));
                }
                probe.abort(t);
                return (record(ops, HistOutcome::Aborted), retry);
            }
        }
    }
    match probe.commit(t) {
        Ok(()) => (kvtable::committed(xid, ops), false),
        Err(e) if retryable(&e) => (record(ops, HistOutcome::Aborted), true),
        Err(e) => {
            probe::fail(format!("commit failed: {e}"));
            (record(ops, HistOutcome::Unacked), false)
        }
    }
}
