//! Deterministic fault-injection harness.
//!
//! A seeded multi-terminal workload runs read-modify-write transactions
//! over a small keyed table whose payloads are self-describing,
//! checksummed [`WriteTag`]s. Everything the clients did and observed is
//! recorded as a [`History`]. The harness then "crashes" the engine at
//! every Nth WAL-record boundary: it truncates the durable record
//! stream at that point, re-opens a fresh engine via
//! [`SiasDb::recover_from_wal`], and feeds the pre-crash history plus
//! the recovered state to the black-box checker
//! ([`check_anomalies`] / [`check_durability`]).
//!
//! Determinism is the point: the workload runs on a single thread with
//! a round-robin terminal schedule, all randomness comes from a
//! splitmix64 stream seeded by [`ChaosConfig::seed`], and device faults
//! (if enabled) draw from the storage layer's own deterministic
//! injector keyed by the virtual clock. Every fault sequence — and
//! therefore every verdict — is reproducible from the `(seed,
//! crash_point)` pair alone, which [`CrashMatrixReport::fingerprint`]
//! certifies.
//!
//! The harness can also impersonate a buggy engine:
//! [`ChaosConfig::plant_durability_bug`] makes it acknowledge commits
//! at the durability watermark observed at transaction *begin* — the
//! classic ack-before-force bug. The checker must flag it (DUR-ACK),
//! which validates the checker itself end to end.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use parking_lot::Mutex;
use sias_common::{SiasError, Xid};
use sias_core::{FlushPolicy, GcCrashPoint, GcSliceOpts, GcStats, SiasDb, TupleVersion};
use sias_obs::{FlightRecorder, MetricsSnapshot, SpanName, TraceEvent};
use sias_storage::{FaultConfig, FaultPlan, StorageConfig, Wal, WalRecord};
use sias_txn::{MvccEngine, Txn};

use crate::check::{
    check_anomalies, check_durability, check_serializability, DurabilityInput, HistOp, HistOutcome,
    History, TxnRecord, Violation, WriteTag,
};

/// Parameters of one chaos run. Two runs with equal configs produce
/// bit-identical histories, fault sequences and verdicts.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Master seed for the workload's splitmix64 stream and the device
    /// fault injector.
    pub seed: u64,
    /// Transactions to run (excluding the setup transaction).
    pub txns: usize,
    /// Key-space size; every key is pre-inserted by the setup txn.
    pub keys: u64,
    /// Operations per transaction.
    pub ops_per_txn: usize,
    /// Simulated terminals, interleaved round-robin on one thread.
    pub terminals: usize,
    /// Probability (parts per million) of a deliberate client abort at
    /// the end of a transaction.
    pub abort_ppm: u32,
    /// Fault profile for the *data* device during the run. The WAL
    /// device always runs fault-free here: torn and short log writes
    /// are exercised separately by truncating the record stream.
    pub data_faults: FaultConfig,
    /// Acknowledge commits at the durability watermark recorded at
    /// transaction begin instead of after the commit force — a planted
    /// ack-before-force bug the checker must catch.
    pub plant_durability_bug: bool,
    /// Run the engine in serializable (SSI) mode. The crash matrix then
    /// additionally gates the history on [`check_serializability`]: a
    /// correct SSI implementation admits no G2 cycle, ever.
    pub serializable: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 1,
            txns: 48,
            keys: 12,
            ops_per_txn: 6,
            terminals: 4,
            abort_ppm: 120_000,
            data_faults: FaultConfig::none(),
            plant_durability_bug: false,
            serializable: false,
        }
    }
}

impl ChaosConfig {
    /// Default shape with a specific seed.
    pub fn with_seed(seed: u64) -> Self {
        ChaosConfig { seed, ..Default::default() }
    }
}

/// Outcome counters and artifacts of one chaos workload run.
pub struct ChaosRun {
    /// The recorded client history, including the per-key version order
    /// extracted from a clean full-log recovery.
    pub history: History,
    /// The durable WAL record stream scanned back from the device —
    /// the crash matrix truncates this.
    pub records: Vec<WalRecord>,
    /// Transactions acknowledged as committed.
    pub committed: u64,
    /// Transactions aborted (client choice, write conflicts, or
    /// detected read corruption).
    pub aborted: u64,
    /// First-updater-wins conflicts encountered.
    pub conflicts: u64,
    /// Reads that failed the payload checksum or errored at the device
    /// (only with data faults enabled); each aborts its transaction.
    pub corrupt_reads: u64,
    /// Faults the storage layer actually injected during the run
    /// (`storage.faults.io_faults_injected`).
    pub faults_injected: u64,
    /// Transactions the SSI machinery aborted (pivot detection at read,
    /// write or commit time). Zero unless the run is serializable.
    pub serialization_aborts: u64,
    /// Key-space size, for recovered-state probes.
    pub keys: u64,
    /// The pre-crash engine's flight recorder (tracing is enabled for
    /// the whole run). Still live after the simulated crash, so the
    /// crash matrix can stamp anomaly instants into the same timeline.
    pub tracer: Arc<FlightRecorder>,
    /// Metrics snapshot of the pre-crash engine, taken after the crash
    /// scan (excluded from fingerprints: latencies are wall-clock).
    pub metrics: MetricsSnapshot,
}

/// splitmix64: the workload's only randomness source.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn chance_ppm(&mut self, ppm: u32) -> bool {
        self.next() % 1_000_000 < u64::from(ppm)
    }
}

/// One simulated terminal's in-flight transaction.
struct Terminal {
    txn: Txn,
    rec: TxnRecord,
    ops_done: usize,
    op_seq: u32,
    /// Durable watermark at begin — the planted bug acks here.
    ack_basis: u64,
}

/// Runs the seeded chaos workload against a fresh in-memory SIAS engine
/// (with `cfg.data_faults` injected below the buffer pool), scans the
/// durable WAL back from the device, and extracts the committed version
/// order from a clean recovery of the full log.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosRun {
    // A deliberately tiny pool: steady eviction and re-read traffic is
    // what routes the workload through the (possibly faulty) data
    // device; with the default pool every page would stay cached and
    // injected faults would never surface.
    let storage = StorageConfig::in_memory()
        .with_pool_frames(48)
        .with_faults(FaultPlan { data: cfg.data_faults, wal: FaultConfig::none() });
    let db = SiasDb::open(storage);
    if cfg.serializable {
        db.set_serializable();
    }
    // The flight recorder runs for the whole pre-crash lifetime: when a
    // crash or an anomaly fires, the last window of spans is the dump.
    // Recovery engines built later never enable tracing and stay free.
    let tracer = Arc::clone(db.stack().obs.tracer());
    tracer.set_enabled(true);

    // Commit-acknowledgement hook: the engine tells us the dense commit
    // sequence for every commit it acknowledges.
    let seqs: Arc<Mutex<HashMap<Xid, u64>>> = Arc::new(Mutex::new(HashMap::new()));
    {
        let seqs = Arc::clone(&seqs);
        db.txm().set_commit_hook(move |xid, seq| {
            seqs.lock().insert(xid, seq);
        });
    }

    let rel = db.create_relation("chaos");
    let mut history = History::default();
    let mut rng = Rng(cfg.seed);
    let (mut committed, mut aborted, mut conflicts, mut corrupt_reads) = (0u64, 0u64, 0u64, 0u64);

    // Setup: every key exists before the contended phase starts.
    {
        let txn = db.begin();
        let xid = txn.xid;
        let mut rec = TxnRecord { xid, ops: Vec::new(), outcome: HistOutcome::Aborted };
        for key in 0..cfg.keys {
            let tag = WriteTag { xid, seq: key as u32 };
            db.insert(&txn, rel, key, &tag.encode_payload(key)).expect("setup insert");
            rec.ops.push(HistOp::Write { key, tag });
        }
        db.commit(txn).expect("setup commit");
        let seq = seqs.lock().remove(&xid).unwrap_or(0);
        rec.outcome = HistOutcome::Committed {
            commit_seq: seq,
            acked_at_record: db.stack().wal.durable_record_count(),
        };
        committed += 1;
        history.txns.push(rec);
    }

    let mut terminals: Vec<Option<Terminal>> = (0..cfg.terminals.max(1)).map(|_| None).collect();
    let mut started = 0usize;
    loop {
        let mut idle = true;
        for slot in terminals.iter_mut() {
            match slot {
                None if started < cfg.txns => {
                    let ack_basis = db.stack().wal.record_counts().0;
                    let txn = db.begin();
                    let rec =
                        TxnRecord { xid: txn.xid, ops: Vec::new(), outcome: HistOutcome::Aborted };
                    *slot = Some(Terminal { txn, rec, ops_done: 0, op_seq: 0, ack_basis });
                    started += 1;
                    idle = false;
                }
                None => {}
                Some(t) if t.ops_done < cfg.ops_per_txn => {
                    idle = false;
                    t.ops_done += 1;
                    let key = rng.next() % cfg.keys;
                    let is_rmw = rng.next() % 100 < 60;
                    // Every op starts with a read of the key.
                    let observed = match db.get(&t.txn, rel, key) {
                        Ok(Some(bytes)) => match WriteTag::decode_payload(&bytes) {
                            Some((k, tag)) if k == key => Some(tag),
                            _ => {
                                // Corruption slipped through the engine:
                                // count it and abort this transaction.
                                corrupt_reads += 1;
                                let t = slot.take().unwrap();
                                db.abort(t.txn);
                                aborted += 1;
                                history.txns.push(t.rec);
                                continue;
                            }
                        },
                        Ok(None) => None,
                        Err(SiasError::SerializationFailure(_)) => {
                            // SSI pivot detected at read time: the read
                            // rolled back, the client aborts the txn.
                            let t = slot.take().unwrap();
                            db.abort(t.txn);
                            aborted += 1;
                            history.txns.push(t.rec);
                            continue;
                        }
                        Err(_) => {
                            corrupt_reads += 1;
                            let t = slot.take().unwrap();
                            db.abort(t.txn);
                            aborted += 1;
                            history.txns.push(t.rec);
                            continue;
                        }
                    };
                    t.rec.ops.push(HistOp::Read { key, observed });
                    if !is_rmw {
                        continue;
                    }
                    let tag = WriteTag { xid: t.txn.xid, seq: t.op_seq };
                    t.op_seq += 1;
                    match db.update(&t.txn, rel, key, &tag.encode_payload(key)) {
                        Ok(()) => t.rec.ops.push(HistOp::Write { key, tag }),
                        Err(SiasError::WriteConflict { .. }) => {
                            conflicts += 1;
                            let t = slot.take().unwrap();
                            db.abort(t.txn);
                            aborted += 1;
                            history.txns.push(t.rec);
                        }
                        Err(_) => {
                            let t = slot.take().unwrap();
                            db.abort(t.txn);
                            aborted += 1;
                            history.txns.push(t.rec);
                        }
                    }
                }
                Some(_) => {
                    idle = false;
                    let mut t = slot.take().unwrap();
                    if rng.chance_ppm(cfg.abort_ppm) {
                        db.abort(t.txn);
                        aborted += 1;
                    } else {
                        let xid = t.txn.xid;
                        match db.commit(t.txn) {
                            Ok(()) => {
                                let acked_at_record = if cfg.plant_durability_bug {
                                    t.ack_basis
                                } else {
                                    db.stack().wal.durable_record_count()
                                };
                                let seq = seqs.lock().remove(&xid).unwrap_or(0);
                                t.rec.outcome =
                                    HistOutcome::Committed { commit_seq: seq, acked_at_record };
                                committed += 1;
                            }
                            Err(SiasError::SerializationFailure(_)) => {
                                // The engine aborted the pivot *before*
                                // appending its Commit record, so this is
                                // a definitive abort, not an unacked
                                // maybe-commit.
                                aborted += 1;
                            }
                            Err(_) => {
                                t.rec.outcome = HistOutcome::Unacked;
                            }
                        }
                    }
                    history.txns.push(t.rec);
                }
            }
        }
        if idle {
            break;
        }
    }

    // One transaction dies in flight: its appends reach the durable log
    // (a background force), but no Commit record ever does. Recovery
    // must discard it at every crash point.
    {
        let txn = db.begin();
        let xid = txn.xid;
        let mut rec = TxnRecord { xid, ops: Vec::new(), outcome: HistOutcome::Unacked };
        for key in 0..2.min(cfg.keys) {
            let tag = WriteTag { xid, seq: key as u32 };
            if db.update(&txn, rel, key, &tag.encode_payload(key)).is_ok() {
                rec.ops.push(HistOp::Write { key, tag });
            }
        }
        history.txns.push(rec);
        tracer.instant(SpanName::ChaosCrash, xid.0, 0);
        std::mem::forget(txn); // the crash: no commit, no abort
        let _ = db.stack().wal.force();
    }

    // The "crash": scan the durable log straight off the device, as a
    // post-crash process would.
    let (records, _) = Wal::scan_device(db.stack().wal.device().as_ref());
    let faults_injected = db.stack().obs.counter("storage.faults.io_faults_injected").get();
    let metrics = db.stack().obs.snapshot();

    // Version order, from a clean recovery of the full log: the
    // engine's own opinion of each key's committed chain.
    let (clean, _) =
        SiasDb::recover_from_wal(&records, StorageConfig::in_memory(), FlushPolicy::T2)
            .expect("clean full-log recovery");
    history.version_order = extract_version_order(&clean, "chaos", &history.committed());

    ChaosRun {
        history,
        records,
        committed,
        aborted,
        conflicts,
        corrupt_reads,
        faults_injected,
        serialization_aborts: db.serialization_aborts(),
        keys: cfg.keys,
        tracer,
        metrics,
    }
}

/// Walks every chain of the database oldest-first and decodes the tag
/// stream per key, keeping only acknowledged-committed writers. Shared
/// with the threaded driver, whose stress test needs the engine's own
/// opinion of each key's committed order for the G0 check.
pub(crate) fn extract_version_order(
    db: &SiasDb,
    rel_name: &str,
    committed: &BTreeSet<Xid>,
) -> BTreeMap<u64, Vec<WriteTag>> {
    let mut order = BTreeMap::new();
    let Some(rel) = db.relation(rel_name) else { return order };
    let handle = db.relation_handle(rel).expect("chaos relation handle");
    let mut entries = Vec::new();
    handle.vidmap.for_each(|_, tid| entries.push(tid));
    for entry in entries {
        let chain = sias_core::chain::collect_chain(&db.stack().pool, rel, entry)
            .expect("recovered chain is intact");
        let mut key = None;
        let mut tags = Vec::new();
        for (_, v) in chain.iter().rev() {
            let Some((k, tag)) = WriteTag::decode_payload(&v.payload) else { continue };
            if committed.contains(&tag.xid) {
                key = Some(k);
                tags.push(tag);
            }
        }
        if let Some(k) = key {
            order.insert(k, tags);
        }
    }
    order
}

/// Verdict of one full crash-point sweep.
#[derive(Clone, Debug)]
pub struct CrashMatrixReport {
    /// The seed that produced this report.
    pub seed: u64,
    /// Records in the durable pre-crash log.
    pub total_records: u64,
    /// Crash points probed.
    pub crash_points: u64,
    /// Transactions acknowledged by the pre-crash engine.
    pub committed_txns: u64,
    /// Transactions aborted by the pre-crash engine.
    pub aborted_txns: u64,
    /// First-updater-wins conflicts in the workload.
    pub conflicts: u64,
    /// Faults the storage layer injected during the pre-crash run.
    pub faults_injected: u64,
    /// Transactions the SSI machinery aborted during the pre-crash run
    /// (zero unless `serializable` was set).
    pub serialization_aborts: u64,
    /// Every violation found, tagged with the crash point that exposed
    /// it (`total_records` for whole-history anomaly findings).
    pub violations: Vec<(u64, Violation)>,
    /// Order-sensitive digest of the log, the history outcomes and the
    /// violations: equal seeds and configs must produce equal
    /// fingerprints, which the reproducibility test asserts. Trace
    /// events are excluded — wall-clock timings are not reproducible.
    pub fingerprint: u64,
    /// Flight-recorder dump from the pre-crash engine: the retained
    /// span window plus one `anomaly.flag` instant per violation
    /// (`arg` = the crash point that exposed it).
    pub trace_events: Vec<TraceEvent>,
    /// Pre-crash engine metrics (also fingerprint-exempt).
    pub metrics: MetricsSnapshot,
}

impl CrashMatrixReport {
    /// One-line summary for harness output.
    pub fn summary(&self) -> String {
        format!(
            "seed {:>3}: {} records, {} crash points, {} committed, {} aborted, \
             {} faults, {} ssi-aborts, {} violations, fingerprint {:016x}",
            self.seed,
            self.total_records,
            self.crash_points,
            self.committed_txns,
            self.aborted_txns,
            self.faults_injected,
            self.serialization_aborts,
            self.violations.len(),
            self.fingerprint
        )
    }
}

/// Runs the chaos workload, then crashes it at every `crash_every`th
/// WAL-record boundary (plus the full log), recovering each prefix on a
/// fresh in-memory stack and checking SI anomalies and durability.
pub fn crash_matrix(cfg: &ChaosConfig, crash_every: u64) -> CrashMatrixReport {
    let crash_every = crash_every.max(1);
    let run = run_chaos(cfg);
    let total = run.records.len() as u64;
    let mut violations: Vec<(u64, Violation)> = Vec::new();

    // Whole-history anomaly pass (crash-independent).
    for v in check_anomalies(&run.history) {
        violations.push((total, v));
    }

    // Serializable runs additionally gate on the serialization graph:
    // SSI must admit no G2 cycle among acknowledged commits. Plain SI
    // legitimately permits write skew, so the pass only gates SSI runs.
    if cfg.serializable {
        for v in check_serializability(&run.history) {
            violations.push((total, v));
        }
    }

    // Crash-point sweep.
    let mut points: Vec<u64> = (crash_every..total).step_by(crash_every as usize).collect();
    points.push(total);
    for &n in &points {
        let prefix = &run.records[..n as usize];
        let (recovered, _) =
            SiasDb::recover_from_wal(prefix, StorageConfig::in_memory(), FlushPolicy::T2)
                .expect("prefix recovery");
        let input = durability_input(&run, prefix, &recovered);
        for v in check_durability(&run.history, &input) {
            violations.push((n, v));
        }
    }

    let fingerprint = fingerprint(cfg, &run, &violations);
    for (point, _) in &violations {
        run.tracer.instant(SpanName::AnomalyFlag, 0, *point);
    }
    let trace_events = run.tracer.capture();
    let metrics = run.metrics.clone();
    CrashMatrixReport {
        seed: cfg.seed,
        total_records: total,
        crash_points: points.len() as u64,
        committed_txns: run.committed,
        aborted_txns: run.aborted,
        conflicts: run.conflicts,
        faults_injected: run.faults_injected,
        serialization_aborts: run.serialization_aborts,
        violations,
        fingerprint,
        trace_events,
        metrics,
    }
}

/// Builds the checker's view of one crash point: commit set and final
/// tags decoded from the surviving prefix, commit set and visible tags
/// read back from the recovered engine.
fn durability_input(run: &ChaosRun, prefix: &[WalRecord], recovered: &SiasDb) -> DurabilityInput {
    let mut prefix_commits: BTreeSet<Xid> = BTreeSet::new();
    for rec in prefix {
        if let WalRecord::Commit(x) = rec {
            prefix_commits.insert(*x);
        }
    }

    let mut expected_state: BTreeMap<u64, WriteTag> = BTreeMap::new();
    for rec in prefix {
        let WalRecord::Insert { xid, payload, .. } = rec else { continue };
        if !prefix_commits.contains(xid) {
            continue;
        }
        let Ok(version) = TupleVersion::decode(payload) else { continue };
        if let Some((key, tag)) = WriteTag::decode_payload(&version.payload) {
            expected_state.insert(key, tag);
        }
    }

    let mut recovered_commits: BTreeSet<Xid> = BTreeSet::new();
    for t in &run.history.txns {
        if recovered.txm().clog.status(t.xid) == sias_txn::TxnStatus::Committed {
            recovered_commits.insert(t.xid);
        }
    }

    let mut recovered_state: BTreeMap<u64, WriteTag> = BTreeMap::new();
    if let Some(rel) = recovered.relation("chaos") {
        let txn = recovered.begin();
        for key in 0..run.keys {
            if let Ok(Some(bytes)) = recovered.get(&txn, rel, key) {
                if let Some((k, tag)) = WriteTag::decode_payload(&bytes) {
                    if k == key {
                        recovered_state.insert(key, tag);
                    }
                }
            }
        }
        recovered.commit(txn).expect("probe txn commit");
    }

    DurabilityInput {
        crash_record_count: prefix.len() as u64,
        prefix_commits,
        recovered_commits,
        expected_state,
        recovered_state,
    }
}

/// Verdict of one scrub scenario: seeded bit-rot planted under a live
/// engine, self-repaired by the scrubber, and black-box checked.
#[derive(Clone, Debug)]
pub struct ScrubReport {
    /// The seed that produced this run.
    pub seed: u64,
    /// Transactions acknowledged by the workload.
    pub committed_txns: u64,
    /// Sealed pages the scrubber probed.
    pub pages_scanned: u64,
    /// Pages the planted bit-rot corrupted (as detected).
    pub pages_corrupt: u64,
    /// Corrupt pages repaired from WAL history and reclaimed.
    pub pages_repaired: u64,
    /// Item chains rebuilt during repair.
    pub chains_rebuilt: u64,
    /// SI anomalies found in the history *including* the post-scrub
    /// reads — must be empty for a correct repair.
    pub violations: Vec<Violation>,
}

impl ScrubReport {
    /// One-line summary for harness output.
    pub fn summary(&self) -> String {
        format!(
            "seed {:>3}: {} committed, {} pages scanned, {} corrupt, {} repaired, \
             {} chains rebuilt, {} violations",
            self.seed,
            self.committed_txns,
            self.pages_scanned,
            self.pages_corrupt,
            self.pages_repaired,
            self.chains_rebuilt,
            self.violations.len()
        )
    }
}

/// Runs a seeded serial workload on a live engine, checkpoints, plants
/// bit-rot on up to `rot_pages` sealed data pages (chosen by the seeded
/// stream), lets the scrubber repair them, then re-reads every key in a
/// fresh transaction appended to the history and runs the SI-anomaly
/// checker over the whole thing. A correct scrubber yields
/// `pages_corrupt == pages_repaired` and zero violations.
///
/// This is deliberately a separate scenario from [`run_chaos`]: the
/// crash matrix leaves a forgotten in-flight transaction behind (its
/// point is crash resolution), while scrubbing — like vacuum — needs a
/// quiescent engine.
pub fn scrub_scenario(cfg: &ChaosConfig, rot_pages: usize) -> ScrubReport {
    let db = SiasDb::open(StorageConfig::in_memory().with_pool_frames(48));
    let seqs: Arc<Mutex<HashMap<Xid, u64>>> = Arc::new(Mutex::new(HashMap::new()));
    {
        let seqs = Arc::clone(&seqs);
        db.txm().set_commit_hook(move |xid, seq| {
            seqs.lock().insert(xid, seq);
        });
    }
    let rel = db.create_relation("chaos");
    let mut history = History::default();
    let mut rng = Rng(cfg.seed ^ 0x5c2b_ab5e);
    let mut committed = 0u64;

    let ack = |xid: Xid, mut rec: TxnRecord| -> TxnRecord {
        let seq = seqs.lock().remove(&xid).unwrap_or(0);
        rec.outcome = HistOutcome::Committed {
            commit_seq: seq,
            acked_at_record: db.stack().wal.durable_record_count(),
        };
        rec
    };

    // Setup: every key exists.
    {
        let txn = db.begin();
        let xid = txn.xid;
        let mut rec = TxnRecord { xid, ops: Vec::new(), outcome: HistOutcome::Aborted };
        for key in 0..cfg.keys {
            let tag = WriteTag { xid, seq: key as u32 };
            db.insert(&txn, rel, key, &tag.encode_payload(key)).expect("setup insert");
            rec.ops.push(HistOp::Write { key, tag });
        }
        db.commit(txn).expect("setup commit");
        history.txns.push(ack(xid, rec));
        committed += 1;
    }

    // Serial read-modify-write rounds (the scrub scenario needs the
    // engine quiescent afterwards, so no forgotten in-flight work).
    for _ in 0..cfg.txns {
        let txn = db.begin();
        let xid = txn.xid;
        let mut rec = TxnRecord { xid, ops: Vec::new(), outcome: HistOutcome::Aborted };
        for seq in 0..cfg.ops_per_txn as u32 {
            let key = rng.next() % cfg.keys;
            let observed = match db.get(&txn, rel, key).expect("live read") {
                Some(bytes) => WriteTag::decode_payload(&bytes).map(|(_, tag)| tag),
                None => None,
            };
            rec.ops.push(HistOp::Read { key, observed });
            let tag = WriteTag { xid, seq };
            match db.update(&txn, rel, key, &tag.encode_payload(key)) {
                Ok(()) => rec.ops.push(HistOp::Write { key, tag }),
                Err(_) => break, // serial workload: only duplicate-key self-conflicts
            }
        }
        if rng.chance_ppm(cfg.abort_ppm) {
            db.abort(txn);
            history.txns.push(rec);
        } else {
            db.commit(txn).expect("serial commit");
            history.txns.push(ack(xid, rec));
            committed += 1;
        }
    }

    // Seal and flush everything, then plant bit-rot on sealed pages.
    db.checkpoint().expect("checkpoint before rot");
    let handle = db.relation_handle(rel).expect("chaos relation");
    let nblocks = db.stack().space.relation_blocks(rel);
    let sealed: Vec<u32> = (0..nblocks)
        .filter(|b| handle.append.open_block() != Some(*b) && !handle.append.is_free(*b))
        .collect();
    let mut victims: BTreeSet<u32> = BTreeSet::new();
    while victims.len() < rot_pages.min(sealed.len()) {
        victims.insert(sealed[(rng.next() % sealed.len() as u64) as usize]);
    }
    let device = db.stack().pool.device();
    for &block in &victims {
        let lba = db.stack().space.resolve(rel, block).expect("victim lba");
        let mut img = vec![0u8; sias_common::PAGE_SIZE];
        device.read_page(lba, &mut img);
        let off = (rng.next() % sias_common::PAGE_SIZE as u64) as usize;
        let bit = 1u8 << (rng.next() % 8);
        img[off] ^= bit;
        device.write_page(lba, &img, true);
        db.stack().pool.invalidate_block(rel, block);
    }

    // Self-repair. Any single-bit flip is detectable: the CRC covers
    // every page byte outside its own field, and a flip inside the field
    // breaks the stored value instead.
    let pass = db.scrub_all().expect("scrub sweep");

    // Post-scrub probe: every key read back in one committed transaction
    // appended to the history, so the anomaly checker sees the repaired
    // state as just another snapshot.
    {
        let txn = db.begin();
        let xid = txn.xid;
        let mut rec = TxnRecord { xid, ops: Vec::new(), outcome: HistOutcome::Aborted };
        for key in 0..cfg.keys {
            let observed = db
                .get(&txn, rel, key)
                .expect("post-scrub read must not fail")
                .and_then(|bytes| WriteTag::decode_payload(&bytes).map(|(_, tag)| tag));
            assert!(observed.is_some(), "post-scrub read of key {key} lost its tag");
            rec.ops.push(HistOp::Read { key, observed });
        }
        db.commit(txn).expect("probe commit");
        history.txns.push(ack(xid, rec));
        committed += 1;
    }

    history.version_order = extract_version_order(&db, "chaos", &history.committed());
    let violations = check_anomalies(&history);
    ScrubReport {
        seed: cfg.seed,
        committed_txns: committed,
        pages_scanned: pass.pages_scanned,
        pages_corrupt: pass.pages_corrupt,
        pages_repaired: pass.pages_repaired,
        chains_rebuilt: pass.chains_rebuilt,
        violations,
    }
}

/// Verdict of one seeded mid-relocation crash: the process dies at a
/// chosen [`GcCrashPoint`] inside an incremental GC slice, the WAL is
/// recovered on a fresh stack, and both the recovered and the
/// surviving live engine are black-box checked.
#[derive(Clone, Debug)]
pub struct GcCrashReport {
    /// The seed that produced this run.
    pub seed: u64,
    /// Where inside the slice the simulated crash fired.
    pub crash_point: GcCrashPoint,
    /// Transactions acknowledged by the workload.
    pub committed_txns: u64,
    /// Whether the target crash point was actually reached (a run with
    /// no garbage can't relocate; the gate requires this to be true).
    pub crash_fired: bool,
    /// Live versions relocated before and after the crash.
    pub versions_relocated: u64,
    /// Victim pages physically recycled by the time GC went quiet.
    pub pages_reclaimed: u64,
    /// Committed keys whose newest tag was missing or wrong after WAL
    /// recovery — must be zero ("no lost versions").
    pub lost_keys: u64,
    /// SI anomalies over the live engine's history *including* a
    /// post-crash, post-GC probe of every key — must be empty.
    pub violations: Vec<Violation>,
}

impl GcCrashReport {
    /// One-line summary for harness output.
    pub fn summary(&self) -> String {
        format!(
            "seed {:>3} @ {:?}: {} committed, fired {}, {} relocated, {} reclaimed, \
             {} lost keys, {} violations",
            self.seed,
            self.crash_point,
            self.committed_txns,
            self.crash_fired,
            self.versions_relocated,
            self.pages_reclaimed,
            self.lost_keys,
            self.violations.len()
        )
    }
}

/// Runs a seeded serial update-heavy workload (building version-chain
/// garbage), then drives incremental GC slices with a crash injected at
/// `crash_point` — after the relocation append, after the CAS publish,
/// or just before a deferred page recycle. The "crashed" process's WAL
/// is scanned and recovered on a fresh in-memory stack; every key the
/// workload committed must read back with its newest tag there (no
/// lost versions). The surviving live engine then finishes GC and is
/// probed: its whole history, probe included, must show zero SI
/// anomalies, and its ⟨key, VID⟩ index must pass validation.
pub fn gc_crash_scenario(cfg: &ChaosConfig, crash_point: GcCrashPoint) -> GcCrashReport {
    let db = SiasDb::open(StorageConfig::in_memory().with_pool_frames(48));
    let seqs: Arc<Mutex<HashMap<Xid, u64>>> = Arc::new(Mutex::new(HashMap::new()));
    {
        let seqs = Arc::clone(&seqs);
        db.txm().set_commit_hook(move |xid, seq| {
            seqs.lock().insert(xid, seq);
        });
    }
    let rel = db.create_relation("chaos");
    let mut history = History::default();
    let mut rng = Rng(cfg.seed ^ 0x6c_9c3d_11f7);
    let mut committed = 0u64;
    // Last committed tag per key — the "no lost versions" oracle.
    let mut expected: BTreeMap<u64, WriteTag> = BTreeMap::new();

    let ack = |xid: Xid, mut rec: TxnRecord| -> TxnRecord {
        let seq = seqs.lock().remove(&xid).unwrap_or(0);
        rec.outcome = HistOutcome::Committed {
            commit_seq: seq,
            acked_at_record: db.stack().wal.durable_record_count(),
        };
        rec
    };

    // Setup: every key exists.
    {
        let txn = db.begin();
        let xid = txn.xid;
        let mut rec = TxnRecord { xid, ops: Vec::new(), outcome: HistOutcome::Aborted };
        for key in 0..cfg.keys {
            let tag = WriteTag { xid, seq: key as u32 };
            db.insert(&txn, rel, key, &tag.encode_payload(key)).expect("setup insert");
            rec.ops.push(HistOp::Write { key, tag });
            expected.insert(key, tag);
        }
        db.commit(txn).expect("setup commit");
        history.txns.push(ack(xid, rec));
        committed += 1;
    }

    // Serial read-modify-write rounds: each superseded version is
    // GC garbage, so the slices below always have relocation work.
    for _ in 0..cfg.txns {
        let txn = db.begin();
        let xid = txn.xid;
        let mut rec = TxnRecord { xid, ops: Vec::new(), outcome: HistOutcome::Aborted };
        let mut writes: Vec<(u64, WriteTag)> = Vec::new();
        for seq in 0..cfg.ops_per_txn as u32 {
            let key = rng.next() % cfg.keys;
            let observed = match db.get(&txn, rel, key).expect("live read") {
                Some(bytes) => WriteTag::decode_payload(&bytes).map(|(_, tag)| tag),
                None => None,
            };
            rec.ops.push(HistOp::Read { key, observed });
            let tag = WriteTag { xid, seq };
            match db.update(&txn, rel, key, &tag.encode_payload(key)) {
                Ok(()) => {
                    rec.ops.push(HistOp::Write { key, tag });
                    writes.push((key, tag));
                }
                Err(_) => break, // serial workload: only duplicate-key self-conflicts
            }
        }
        if rng.chance_ppm(cfg.abort_ppm) {
            db.abort(txn);
            history.txns.push(rec);
        } else {
            db.commit(txn).expect("serial commit");
            history.txns.push(ack(xid, rec));
            committed += 1;
            for (key, tag) in writes {
                expected.insert(key, tag);
            }
        }
    }

    // Churn phase: hammer only the upper half of the key space. The
    // frozen lower half's newest versions are left stranded on pages
    // that fill up with dead upper-half versions — exactly the
    // mixed live/dead victim pages whose chains incremental GC must
    // *relocate* (an all-dead page is parked without relocation, so
    // without this phase the append/CAS crash points never fire).
    let hot_lo = (cfg.keys / 2).max(1);
    for round in 0..48u32 {
        let txn = db.begin();
        let xid = txn.xid;
        let mut rec = TxnRecord { xid, ops: Vec::new(), outcome: HistOutcome::Aborted };
        let mut writes: Vec<(u64, WriteTag)> = Vec::new();
        for (i, key) in (hot_lo..cfg.keys).enumerate() {
            let tag = WriteTag { xid, seq: round * 1000 + i as u32 };
            if db.update(&txn, rel, key, &tag.encode_payload(key)).is_ok() {
                rec.ops.push(HistOp::Write { key, tag });
                writes.push((key, tag));
            }
        }
        db.commit(txn).expect("churn commit");
        history.txns.push(ack(xid, rec));
        committed += 1;
        for (key, tag) in writes {
            expected.insert(key, tag);
        }
    }

    // Incremental GC with the seeded crash: the first time the slice
    // passes `crash_point`, the hook "kills the process" — the slice
    // abandons its work exactly there (locks die with the process; the
    // harness releases them the same way).
    let mut cursor = 0;
    let mut stats = GcStats::default();
    let mut fired = false;
    let opts = GcSliceOpts::default();
    for _ in 0..256 {
        let s = db
            .vacuum_slice_interruptible(rel, &mut cursor, &opts, &mut |p| {
                if p == crash_point && !fired {
                    fired = true;
                    return true;
                }
                false
            })
            .expect("gc slice");
        stats.merge(s);
        if fired {
            break;
        }
    }

    // The crash: recover the WAL as a fresh process would. The live
    // engine's in-memory state is gone; only the log survives.
    let (records, _) = Wal::scan_device(db.stack().wal.device().as_ref());
    let (recovered, _) =
        SiasDb::recover_from_wal(&records, StorageConfig::in_memory(), FlushPolicy::T2)
            .expect("mid-relocation recovery");
    let mut lost_keys = 0u64;
    if let Some(rrel) = recovered.relation("chaos") {
        let txn = recovered.begin();
        for (key, want) in &expected {
            let got = recovered
                .get(&txn, rrel, *key)
                .expect("recovered read")
                .and_then(|bytes| WriteTag::decode_payload(&bytes).map(|(_, tag)| tag));
            if got != Some(*want) {
                lost_keys += 1;
            }
        }
        recovered.commit(txn).expect("recovered probe commit");
    } else {
        lost_keys = cfg.keys;
    }

    // The surviving engine carries on: GC runs to completion (the
    // interrupted slice must have left no wedged locks or half-state),
    // then every key is probed in a committed transaction appended to
    // the history for the anomaly checker.
    for _ in 0..256 {
        let s = db.vacuum_slice(rel, &mut cursor, &opts).expect("post-crash gc slice");
        let quiet = s.versions_relocated == 0 && s.pages_reclaimed == 0 && s.items_cleared == 0;
        stats.merge(s);
        if quiet && cursor == 0 {
            break;
        }
    }
    db.debug_validate_index(rel).expect("index consistent after interrupted GC");
    {
        let txn = db.begin();
        let xid = txn.xid;
        let mut rec = TxnRecord { xid, ops: Vec::new(), outcome: HistOutcome::Aborted };
        for key in 0..cfg.keys {
            let observed = db
                .get(&txn, rel, key)
                .expect("post-gc read must not fail")
                .and_then(|bytes| WriteTag::decode_payload(&bytes).map(|(_, tag)| tag));
            assert!(observed.is_some(), "post-gc read of key {key} lost its tag");
            rec.ops.push(HistOp::Read { key, observed });
        }
        db.commit(txn).expect("probe commit");
        history.txns.push(ack(xid, rec));
        committed += 1;
    }

    history.version_order = extract_version_order(&db, "chaos", &history.committed());
    let violations = check_anomalies(&history);
    GcCrashReport {
        seed: cfg.seed,
        crash_point,
        committed_txns: committed,
        crash_fired: fired,
        versions_relocated: stats.versions_relocated,
        pages_reclaimed: stats.pages_reclaimed,
        lost_keys,
        violations,
    }
}

/// Verdict of one planted write-skew run: per constraint pair, two
/// transactions each read both keys and write one — the canonical G2
/// anomaly SI admits and SSI must abort.
#[derive(Clone, Debug)]
pub struct WriteSkewReport {
    /// The seed that produced this run.
    pub seed: u64,
    /// Constraint pairs planted (two transactions each).
    pub pairs: u64,
    /// Whether the engine ran in serializable (SSI) mode.
    pub serializable: bool,
    /// Transactions acknowledged as committed (incl. the setup txn).
    pub committed_txns: u64,
    /// Transactions aborted (all of them SSI pivot aborts here).
    pub aborted_txns: u64,
    /// Aborts attributed to the SSI machinery by the engine's counter.
    pub serialization_aborts: u64,
    /// G2/write-skew cycles found by [`check_serializability`] — one per
    /// pair under plain SI, none under SSI.
    pub g2_violations: Vec<Violation>,
    /// Plain SI anomalies ([`check_anomalies`]) — must be empty in both
    /// modes: write skew is *allowed* under SI, it is not an SI anomaly.
    pub si_violations: Vec<Violation>,
}

impl WriteSkewReport {
    /// One-line summary for harness output.
    pub fn summary(&self) -> String {
        format!(
            "seed {:>3}: {} pairs ({}), {} committed, {} aborted, {} ssi-aborts, \
             {} G2 cycles, {} SI violations",
            self.seed,
            self.pairs,
            if self.serializable { "ssi" } else { "si" },
            self.committed_txns,
            self.aborted_txns,
            self.serialization_aborts,
            self.g2_violations.len(),
            self.si_violations.len()
        )
    }
}

/// One transaction's side of a planted write-skew pair.
struct SkewSide {
    txn: Txn,
    rec: TxnRecord,
}

/// Plants `pairs` textbook write skews and reports what survived.
///
/// For each pair `p` over keys `(2p, 2p+1)`, two concurrent
/// transactions interleave as: T1 reads both keys, T2 reads both keys,
/// T1 writes `2p`, T2 writes `2p+1`, T1 commits, T2 commits. The write
/// sets are disjoint, so first-updater-wins never fires and plain SI
/// acknowledges both — a G2 cycle of two rw-antidependencies that
/// [`check_serializability`] must flag with both transactions as
/// pivots. With [`ChaosConfig::serializable`] set, the SSI machinery
/// must instead abort exactly one transaction per pair (the second
/// writer, whose write would close the cycle) and the surviving
/// history must carry zero G2 cycles.
pub fn write_skew_scenario(cfg: &ChaosConfig, pairs: u64) -> WriteSkewReport {
    let db = SiasDb::open(StorageConfig::in_memory());
    if cfg.serializable {
        db.set_serializable();
    }
    let seqs: Arc<Mutex<HashMap<Xid, u64>>> = Arc::new(Mutex::new(HashMap::new()));
    {
        let seqs = Arc::clone(&seqs);
        db.txm().set_commit_hook(move |xid, seq| {
            seqs.lock().insert(xid, seq);
        });
    }
    let rel = db.create_relation("chaos");
    let mut history = History::default();
    let (mut committed, mut aborted) = (0u64, 0u64);

    let ack = |xid: Xid, mut rec: TxnRecord| -> TxnRecord {
        let seq = seqs.lock().remove(&xid).unwrap_or(0);
        rec.outcome = HistOutcome::Committed {
            commit_seq: seq,
            acked_at_record: db.stack().wal.durable_record_count(),
        };
        rec
    };

    // Setup: both keys of every pair exist.
    {
        let txn = db.begin();
        let xid = txn.xid;
        let mut rec = TxnRecord { xid, ops: Vec::new(), outcome: HistOutcome::Aborted };
        for key in 0..pairs * 2 {
            let tag = WriteTag { xid, seq: key as u32 };
            db.insert(&txn, rel, key, &tag.encode_payload(key)).expect("setup insert");
            rec.ops.push(HistOp::Write { key, tag });
        }
        db.commit(txn).expect("setup commit");
        history.txns.push(ack(xid, rec));
        committed += 1;
    }

    /// One step of the fixed interleaving, applied to side 0 or 1.
    enum Step {
        Read(u64),
        Write(u64),
        Commit,
    }

    for p in 0..pairs {
        let (a, b) = (2 * p, 2 * p + 1);
        let mut sides: [Option<SkewSide>; 2] = [0, 1].map(|_| {
            let txn = db.begin();
            let rec = TxnRecord { xid: txn.xid, ops: Vec::new(), outcome: HistOutcome::Aborted };
            Some(SkewSide { txn, rec })
        });
        // Each side reads BOTH keys of the constraint, then writes its
        // own — the cross reads are what make the histories skewed.
        let script: [(usize, Step); 8] = [
            (0, Step::Read(a)),
            (0, Step::Read(b)),
            (1, Step::Read(a)),
            (1, Step::Read(b)),
            (0, Step::Write(a)),
            (1, Step::Write(b)),
            (0, Step::Commit),
            (1, Step::Commit),
        ];
        for (idx, step) in script {
            if sides[idx].is_none() {
                continue; // side already aborted by the SSI machinery
            }
            match step {
                Step::Read(key) => match db.get(&sides[idx].as_ref().unwrap().txn, rel, key) {
                    Ok(bytes) => {
                        let observed =
                            bytes.and_then(|b| WriteTag::decode_payload(&b)).map(|(_, tag)| tag);
                        let side = sides[idx].as_mut().unwrap();
                        side.rec.ops.push(HistOp::Read { key, observed });
                    }
                    Err(_) => {
                        let side = sides[idx].take().unwrap();
                        db.abort(side.txn);
                        aborted += 1;
                        history.txns.push(side.rec);
                    }
                },
                Step::Write(key) => {
                    let side = sides[idx].as_mut().unwrap();
                    let tag = WriteTag { xid: side.txn.xid, seq: key as u32 };
                    match db.update(&side.txn, rel, key, &tag.encode_payload(key)) {
                        Ok(()) => side.rec.ops.push(HistOp::Write { key, tag }),
                        Err(_) => {
                            let side = sides[idx].take().unwrap();
                            db.abort(side.txn);
                            aborted += 1;
                            history.txns.push(side.rec);
                        }
                    }
                }
                Step::Commit => {
                    let side = sides[idx].take().unwrap();
                    let xid = side.txn.xid;
                    match db.commit(side.txn) {
                        Ok(()) => {
                            history.txns.push(ack(xid, side.rec));
                            committed += 1;
                        }
                        Err(_) => {
                            // SSI commit-time pivot abort (pre-WAL, so
                            // definitive).
                            aborted += 1;
                            history.txns.push(side.rec);
                        }
                    }
                }
            }
        }
    }

    history.version_order = extract_version_order(&db, "chaos", &history.committed());
    let g2_violations = check_serializability(&history);
    let si_violations = check_anomalies(&history);
    WriteSkewReport {
        seed: cfg.seed,
        pairs,
        serializable: cfg.serializable,
        committed_txns: committed,
        aborted_txns: aborted,
        serialization_aborts: db.serialization_aborts(),
        g2_violations,
        si_violations,
    }
}

/// Verdict of one seeded log-exhaustion run: the WAL quota is filled
/// under load, the engine must degrade to read-only with typed
/// rejections (never a panic, never a torn append), keep serving reads,
/// reclaim space, and return to healthy — all black-box checked.
#[derive(Clone, Debug)]
pub struct EnospcReport {
    /// The seed that produced this run.
    pub seed: u64,
    /// Transactions acknowledged as committed.
    pub committed_txns: u64,
    /// Transactions aborted (client choice or typed space rejection).
    pub aborted_txns: u64,
    /// Writes rejected with a typed resource-exhaustion error.
    pub writes_rejected: u64,
    /// Peak `storage.space.wal_used_pct` observed.
    pub peak_used_pct: u64,
    /// Whether the health machine observably entered ReadOnly
    /// (`storage.health.readonly_entered` and a live-state probe).
    pub readonly_entered: bool,
    /// Whether reads kept serving while the engine was read-only.
    pub reads_served_readonly: bool,
    /// Whether the engine returned to Healthy after reclaim.
    pub recovered: bool,
    /// WAL bytes freed by the emergency reclaim.
    pub reclaimed_bytes: u64,
    /// SI anomalies over the whole history, post-reclaim probe included
    /// — must be empty.
    pub violations: Vec<Violation>,
}

impl EnospcReport {
    /// One-line summary for harness output.
    pub fn summary(&self) -> String {
        format!(
            "seed {:>3}: {} committed, {} aborted, {} rejected, peak {}%, \
             readonly {}, reads-in-readonly {}, recovered {}, {} bytes reclaimed, {} violations",
            self.seed,
            self.committed_txns,
            self.aborted_txns,
            self.writes_rejected,
            self.peak_used_pct,
            self.readonly_entered,
            self.reads_served_readonly,
            self.recovered,
            self.reclaimed_bytes,
            self.violations.len()
        )
    }
}

/// Runs a seeded serial tagged workload against an engine whose WAL
/// lives under a tiny logical quota (`wal_quota_pages` with the given
/// low watermark; the hard watermark sits 20 points above it). The
/// write storm fills the log past the hard watermark, at which point
/// the health machine must enter ReadOnly and every further write must
/// be rejected with a typed error. The scenario then verifies reads
/// still serve, triggers the emergency reclaim (vacuum + checkpoint +
/// WAL truncation via the engine's own maintenance path), and checks
/// the return to Healthy. The whole history — rejections, read-only
/// probe, and post-reclaim writes included — must show zero anomalies.
pub fn enospc_scenario(
    cfg: &ChaosConfig,
    wal_quota_pages: u64,
    low_watermark_pct: u64,
) -> EnospcReport {
    let low = low_watermark_pct.clamp(10, 75);
    let hard = (low + 20).min(95);
    let storage = StorageConfig::in_memory()
        .with_pool_frames(48)
        .with_wal_quota_pages(wal_quota_pages)
        .with_space_watermarks(low, hard);
    let db = SiasDb::open(storage);
    let seqs: Arc<Mutex<HashMap<Xid, u64>>> = Arc::new(Mutex::new(HashMap::new()));
    {
        let seqs = Arc::clone(&seqs);
        db.txm().set_commit_hook(move |xid, seq| {
            seqs.lock().insert(xid, seq);
        });
    }
    let rel = db.create_relation("chaos");
    let mut history = History::default();
    let mut rng = Rng(cfg.seed ^ 0xe05_0e05);
    let (mut committed, mut aborted, mut rejected) = (0u64, 0u64, 0u64);
    let mut peak_used_pct = 0u64;

    let ack = |xid: Xid, mut rec: TxnRecord| -> TxnRecord {
        let seq = seqs.lock().remove(&xid).unwrap_or(0);
        rec.outcome = HistOutcome::Committed {
            commit_seq: seq,
            acked_at_record: db.stack().wal.durable_record_count(),
        };
        rec
    };

    // Setup: every key exists (the quota is sized to survive setup).
    {
        let txn = db.begin();
        let xid = txn.xid;
        let mut rec = TxnRecord { xid, ops: Vec::new(), outcome: HistOutcome::Aborted };
        for key in 0..cfg.keys {
            let tag = WriteTag { xid, seq: key as u32 };
            db.insert(&txn, rel, key, &tag.encode_payload(key)).expect("setup insert");
            rec.ops.push(HistOp::Write { key, tag });
        }
        db.commit(txn).expect("setup commit");
        history.txns.push(ack(xid, rec));
        committed += 1;
    }

    // Write storm: serial read-modify-write rounds until the quota
    // rejects us (bounded in case the quota is too generous to fill).
    let mut storm_rounds = 0u32;
    'storm: while db.stack().health.state() != sias_storage::HealthState::ReadOnly {
        storm_rounds += 1;
        if storm_rounds > 50_000 {
            break; // quota never filled; the gate below will fail loudly
        }
        let txn = db.begin();
        let xid = txn.xid;
        let mut rec = TxnRecord { xid, ops: Vec::new(), outcome: HistOutcome::Aborted };
        for seq in 0..cfg.ops_per_txn as u32 {
            let key = rng.next() % cfg.keys;
            let observed = match db.get(&txn, rel, key) {
                Ok(Some(bytes)) => WriteTag::decode_payload(&bytes).map(|(_, tag)| tag),
                Ok(None) => None,
                Err(e) => panic!("reads must never fail under space pressure: {e:?}"),
            };
            rec.ops.push(HistOp::Read { key, observed });
            let tag = WriteTag { xid, seq };
            match db.update(&txn, rel, key, &tag.encode_payload(key)) {
                Ok(()) => rec.ops.push(HistOp::Write { key, tag }),
                Err(e) => {
                    assert!(
                        e.is_resource_exhausted(),
                        "space pressure must reject with a typed error, got {e:?}"
                    );
                    rejected += 1;
                    db.abort(txn);
                    aborted += 1;
                    history.txns.push(rec);
                    peak_used_pct = peak_used_pct.max(db.stack().wal_used_pct());
                    continue 'storm;
                }
            }
        }
        peak_used_pct = peak_used_pct.max(db.stack().wal_used_pct());
        match db.commit(txn) {
            Ok(()) => {
                history.txns.push(ack(xid, rec));
                committed += 1;
            }
            Err(e) => {
                assert!(
                    e.is_resource_exhausted(),
                    "commit under space pressure must fail typed, got {e:?}"
                );
                rejected += 1;
                aborted += 1;
                // Outcome uncertain (the record may become durable).
                rec.outcome = HistOutcome::Unacked;
                history.txns.push(rec);
            }
        }
    }
    let readonly_entered = db.stack().health.state() == sias_storage::HealthState::ReadOnly
        && db.stack().obs.counter("storage.health.readonly_entered").get() > 0;

    // Degraded contract, probed while read-only: reads serve, writes
    // fail fast with a typed error.
    let mut reads_served_readonly = readonly_entered;
    if readonly_entered {
        let txn = db.begin();
        let xid = txn.xid;
        let mut rec = TxnRecord { xid, ops: Vec::new(), outcome: HistOutcome::Aborted };
        for key in 0..cfg.keys {
            match db.get(&txn, rel, key) {
                Ok(observed) => rec.ops.push(HistOp::Read {
                    key,
                    observed: observed
                        .and_then(|b| WriteTag::decode_payload(&b))
                        .map(|(_, tag)| tag),
                }),
                Err(_) => reads_served_readonly = false,
            }
        }
        let tag = WriteTag { xid, seq: 0 };
        match db.update(&txn, rel, 0, &tag.encode_payload(0)) {
            Err(e) if e.is_resource_exhausted() => rejected += 1,
            other => panic!("read-only mode must reject writes typed, got {other:?}"),
        }
        db.abort(txn);
        aborted += 1;
        history.txns.push(rec);
    }

    // Emergency reclaim through the engine's own maintenance path:
    // vacuum + checkpoint + WAL truncation, healing the health machine.
    let live_before = db.stack().wal.live_bytes();
    db.maintenance(true);
    let reclaimed_bytes = live_before.saturating_sub(db.stack().wal.live_bytes());
    let recovered = db.stack().health.state() == sias_storage::HealthState::Healthy
        && db.stack().obs.counter("storage.health.recovered").get() > 0;

    // Post-reclaim probe: the engine is writable again, and the new
    // commits join the same checked history.
    if recovered {
        let txn = db.begin();
        let xid = txn.xid;
        let mut rec = TxnRecord { xid, ops: Vec::new(), outcome: HistOutcome::Aborted };
        for seq in 0..cfg.keys.min(4) as u32 {
            let key = u64::from(seq);
            let observed = db
                .get(&txn, rel, key)
                .expect("post-reclaim read")
                .and_then(|b| WriteTag::decode_payload(&b))
                .map(|(_, tag)| tag);
            rec.ops.push(HistOp::Read { key, observed });
            let tag = WriteTag { xid, seq };
            db.update(&txn, rel, key, &tag.encode_payload(key))
                .expect("post-reclaim write must succeed");
            rec.ops.push(HistOp::Write { key, tag });
        }
        db.commit(txn).expect("post-reclaim commit");
        history.txns.push(ack(xid, rec));
        committed += 1;
    }

    history.version_order = extract_version_order(&db, "chaos", &history.committed());
    let violations = check_anomalies(&history);
    EnospcReport {
        seed: cfg.seed,
        committed_txns: committed,
        aborted_txns: aborted,
        writes_rejected: rejected,
        peak_used_pct,
        readonly_entered,
        reads_served_readonly,
        recovered,
        reclaimed_bytes,
        violations,
    }
}

/// Deterministic digest over the log, the history and the verdicts.
fn fingerprint(cfg: &ChaosConfig, run: &ChaosRun, violations: &[(u64, Violation)]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    cfg.seed.hash(&mut h);
    cfg.txns.hash(&mut h);
    cfg.keys.hash(&mut h);
    cfg.ops_per_txn.hash(&mut h);
    cfg.terminals.hash(&mut h);
    cfg.plant_durability_bug.hash(&mut h);
    cfg.serializable.hash(&mut h);
    run.records.len().hash(&mut h);
    for rec in &run.records {
        format!("{rec:?}").hash(&mut h);
    }
    for t in &run.history.txns {
        format!("{:?}|{:?}", t.xid, t.outcome).hash(&mut h);
        t.ops.len().hash(&mut h);
    }
    for (point, v) in violations {
        point.hash(&mut h);
        v.condition.hash(&mut h);
        v.detail.hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_has_no_violations() {
        let report = crash_matrix(&ChaosConfig::with_seed(7), 16);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.committed_txns > 5, "workload did commit work: {}", report.committed_txns);
        assert!(report.conflicts > 0, "contention produced first-updater-wins conflicts");
        assert!(report.total_records > 50);
        assert!(report.crash_points >= 3);
    }

    #[test]
    fn same_seed_same_fingerprint() {
        let a = crash_matrix(&ChaosConfig::with_seed(11), 8);
        let b = crash_matrix(&ChaosConfig::with_seed(11), 8);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.total_records, b.total_records);
        assert_eq!(a.committed_txns, b.committed_txns);
        let c = crash_matrix(&ChaosConfig::with_seed(12), 8);
        assert_ne!(a.fingerprint, c.fingerprint, "different seed, different run");
    }

    #[test]
    fn planted_ack_before_force_bug_is_caught() {
        let cfg = ChaosConfig { plant_durability_bug: true, ..ChaosConfig::with_seed(7) };
        let report = crash_matrix(&cfg, 4);
        assert!(
            report.violations.iter().any(|(_, v)| v.condition == "DUR-ACK"),
            "the ack-before-force bug must surface as DUR-ACK: {:?}",
            report.violations
        );
        // The bug corrupts acknowledgement bookkeeping only — state and
        // prefix consistency of the engine itself remain clean.
        assert!(report.violations.iter().all(|(_, v)| v.condition == "DUR-ACK"));
    }

    #[test]
    fn data_device_faults_do_not_shake_the_verdict() {
        // Large enough to overflow the tiny pool (so eviction traffic
        // hits the device) and hostile enough that faults really fire.
        let cfg = ChaosConfig {
            txns: 120,
            keys: 400,
            data_faults: FaultConfig {
                torn_write_ppm: 200_000,
                dropped_write_ppm: 100_000,
                transient_error_ppm: 150_000,
                bitrot_ppm: 50_000,
                ..FaultConfig::hostile(99)
            },
            ..ChaosConfig::with_seed(3)
        };
        let report = crash_matrix(&cfg, 64);
        assert!(report.faults_injected > 0, "hostile device must actually fault");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.committed_txns > 0);
    }

    #[test]
    fn scrub_scenario_repairs_seeded_bit_rot_cleanly() {
        let report = scrub_scenario(&ChaosConfig::with_seed(21), 3);
        assert!(report.committed_txns > 5);
        assert!(report.pages_scanned > 0);
        assert!(report.pages_corrupt > 0, "seeded rot must corrupt at least one page");
        assert_eq!(report.pages_corrupt, report.pages_repaired, "every corrupt page repaired");
        assert!(report.chains_rebuilt > 0);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn scrub_scenario_is_deterministic() {
        let a = scrub_scenario(&ChaosConfig::with_seed(33), 2);
        let b = scrub_scenario(&ChaosConfig::with_seed(33), 2);
        assert_eq!(a.committed_txns, b.committed_txns);
        assert_eq!(a.pages_corrupt, b.pages_corrupt);
        assert_eq!(a.chains_rebuilt, b.chains_rebuilt);
    }

    #[test]
    fn enospc_scenario_degrades_and_recovers_cleanly() {
        let report = enospc_scenario(&ChaosConfig::with_seed(11), 24, 50);
        assert!(report.readonly_entered, "quota must fill: {}", report.summary());
        assert!(report.reads_served_readonly, "{}", report.summary());
        assert!(report.recovered, "{}", report.summary());
        assert!(report.writes_rejected > 0, "{}", report.summary());
        assert!(report.reclaimed_bytes > 0, "{}", report.summary());
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn enospc_scenario_is_deterministic() {
        let a = enospc_scenario(&ChaosConfig::with_seed(17), 24, 50);
        let b = enospc_scenario(&ChaosConfig::with_seed(17), 24, 50);
        assert_eq!(a.committed_txns, b.committed_txns);
        assert_eq!(a.aborted_txns, b.aborted_txns);
        assert_eq!(a.writes_rejected, b.writes_rejected);
        assert_eq!(a.peak_used_pct, b.peak_used_pct);
    }

    #[test]
    fn planted_write_skew_is_g2_under_si() {
        let report = write_skew_scenario(&ChaosConfig::with_seed(9), 4);
        assert_eq!(report.committed_txns, 9, "setup + two per pair commit under plain SI");
        assert_eq!(report.aborted_txns, 0);
        assert_eq!(report.serialization_aborts, 0);
        assert!(
            report.si_violations.is_empty(),
            "write skew is not an SI anomaly: {:?}",
            report.si_violations
        );
        assert_eq!(report.g2_violations.len(), 4, "{:?}", report.g2_violations);
        assert!(report.g2_violations.iter().all(|v| v.condition == "G2"));
        assert!(
            report.g2_violations.iter().all(|v| v.detail.contains("pivots")),
            "witness names its pivots: {:?}",
            report.g2_violations
        );
    }

    #[test]
    fn ssi_aborts_every_planted_write_skew() {
        let cfg = ChaosConfig { serializable: true, ..ChaosConfig::with_seed(9) };
        let report = write_skew_scenario(&cfg, 4);
        assert_eq!(report.aborted_txns, 4, "exactly one victim per pair");
        assert_eq!(report.committed_txns, 5, "setup + one survivor per pair");
        assert_eq!(report.serialization_aborts, 4);
        assert!(report.g2_violations.is_empty(), "{:?}", report.g2_violations);
        assert!(report.si_violations.is_empty(), "{:?}", report.si_violations);
    }

    #[test]
    fn ssi_chaos_run_stays_clean_and_deterministic() {
        let cfg = ChaosConfig { serializable: true, ..ChaosConfig::with_seed(7) };
        let report = crash_matrix(&cfg, 16);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.committed_txns > 5, "SSI still commits work: {}", report.committed_txns);
        let again = crash_matrix(&cfg, 16);
        assert_eq!(report.fingerprint, again.fingerprint, "SSI runs stay reproducible");
        let si = crash_matrix(&ChaosConfig::with_seed(7), 16);
        assert_ne!(report.fingerprint, si.fingerprint, "mode is part of the fingerprint");
    }

    #[test]
    fn chaos_run_records_reads_and_writes() {
        let run = run_chaos(&ChaosConfig::with_seed(5));
        let reads = run
            .history
            .txns
            .iter()
            .flat_map(|t| &t.ops)
            .filter(|op| matches!(op, HistOp::Read { .. }))
            .count();
        let writes = run
            .history
            .txns
            .iter()
            .flat_map(|t| &t.ops)
            .filter(|op| matches!(op, HistOp::Write { .. }))
            .count();
        assert!(reads > 20, "reads recorded: {reads}");
        assert!(writes > 20, "writes recorded: {writes}");
        assert!(!run.history.version_order.is_empty());
        // Every observed tag refers to a transaction the history knows.
        let known: BTreeSet<Xid> = run.history.txns.iter().map(|t| t.xid).collect();
        for t in &run.history.txns {
            for op in &t.ops {
                if let HistOp::Read { observed: Some(tag), .. } = op {
                    assert!(known.contains(&tag.xid), "read of unknown writer {tag:?}");
                }
            }
        }
    }
}
