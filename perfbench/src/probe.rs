//! The benchmark's instrumentation: an [`MvccEngine`] wrapper that
//! accounts every transaction, and a span recorder around each call
//! into a layer.
//!
//! [`Probe`] forwards every call to a [`SiasDb`]. With tracing off it
//! only timestamps `begin` and `commit`/`abort`, which gives the
//! transaction latencies, outcome counts and committed payload bytes
//! the end-to-end metrics need. With tracing on it also records a span
//! around each engine call and, on sampled reads, repeats the read step
//! by step through the public layer functions (B+-tree lookup, VID-map
//! get, chain walk, buffer-pool page access), timing each step and
//! checking that the result equals what `get` returned.
//!
//! All state is thread-local: a worker calls [`start_thread`] before it
//! drives the probe and [`finish_thread`] after, and the caller merges
//! the returned [`Local`]s. Nothing here is shared between threads, so
//! recording never contends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use bytes::Bytes;
use sias_common::{RelId, SiasError, SiasResult, Vid};
use sias_core::{chain, SiasDb};
use sias_obs::{MetricsSnapshot, Registry};
use sias_txn::{MvccEngine, Txn};

use crate::stats::Samples;

/// Kept observations per latency or span sampler.
const SAMPLE_CAP: usize = 1 << 20;
/// Raw spans kept per thread for the span file.
const RAW_CAP: usize = 20_000;
/// Raw spans are kept for every `RAW_EVERY`-th recorded top-level span.
const RAW_EVERY: u64 = 64;
/// Failure messages kept per thread (the count stays exact).
const FAILURE_MSGS: usize = 8;
/// With tracing on, every `DECOMPOSE_EVERY`-th recorded `get` and
/// `scan_range` of a thread is repeated step by step.
pub const DECOMPOSE_EVERY: u64 = 16;

fn samples() -> Samples {
    Samples::with_cap(SAMPLE_CAP)
}

/// The spans the benchmark records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Sp {
    /// One transaction, begin to commit or abort.
    Txn,
    /// `MvccEngine::begin`.
    Begin,
    /// `MvccEngine::get`.
    Get,
    /// `MvccEngine::update`.
    Update,
    /// `MvccEngine::insert`.
    Insert,
    /// `MvccEngine::delete`.
    Delete,
    /// `MvccEngine::scan_range`.
    ScanRange,
    /// `MvccEngine::commit` of a transaction that wrote nothing.
    CommitRo,
    /// `MvccEngine::commit` of a transaction that wrote.
    CommitRw,
    /// `MvccEngine::abort`.
    Abort,
    /// `MvccEngine::maintenance` (bgwriter tick or checkpoint).
    Maintenance,
    /// A sampled read repeated step by step.
    ProbeGet,
    /// `BPlusTree::lookup`.
    IndexLookup,
    /// `VidMap::get`.
    VidmapGet,
    /// `chain::visible_version_depth`.
    ChainVisible,
    /// `BufferPool::with_page` on a page the chain walk just used.
    BufferWithPage,
    /// A sampled range scan's index pass.
    ProbeRange,
    /// `BPlusTree::range`.
    IndexRange,
    /// `SiasDb::vacuum_slice`.
    GcSlice,
}

impl Sp {
    /// Every span kind, in declaration order.
    pub const ALL: [Sp; 19] = [
        Sp::Txn,
        Sp::Begin,
        Sp::Get,
        Sp::Update,
        Sp::Insert,
        Sp::Delete,
        Sp::ScanRange,
        Sp::CommitRo,
        Sp::CommitRw,
        Sp::Abort,
        Sp::Maintenance,
        Sp::ProbeGet,
        Sp::IndexLookup,
        Sp::VidmapGet,
        Sp::ChainVisible,
        Sp::BufferWithPage,
        Sp::ProbeRange,
        Sp::IndexRange,
        Sp::GcSlice,
    ];

    /// Span name as printed.
    pub fn name(self) -> &'static str {
        match self {
            Sp::Txn => "txn",
            Sp::Begin => "engine.begin",
            Sp::Get => "engine.get",
            Sp::Update => "engine.update",
            Sp::Insert => "engine.insert",
            Sp::Delete => "engine.delete",
            Sp::ScanRange => "engine.scan_range",
            Sp::CommitRo => "engine.commit_ro",
            Sp::CommitRw => "engine.commit_rw",
            Sp::Abort => "engine.abort",
            Sp::Maintenance => "engine.maintenance",
            Sp::ProbeGet => "probe.get",
            Sp::IndexLookup => "index.lookup",
            Sp::VidmapGet => "vidmap.get",
            Sp::ChainVisible => "chain.visible",
            Sp::BufferWithPage => "buffer.with_page",
            Sp::ProbeRange => "probe.range",
            Sp::IndexRange => "index.range",
            Sp::GcSlice => "gc.slice",
        }
    }
}

/// Aggregate of one span kind: exact count and totals, sampled
/// durations for percentiles.
#[derive(Clone, Debug)]
pub struct Agg {
    /// Span durations, ns.
    pub dur: Samples,
    /// Exact sum of self time (duration minus child spans), ns.
    pub self_ns: u128,
}

impl Default for Agg {
    fn default() -> Self {
        Agg { dur: samples(), self_ns: 0 }
    }
}

/// Time base shared by every thread's spans.
static EPOCH: OnceLock<Instant> = OnceLock::new();
/// Labels the threads whose spans are recorded.
static THREADS: AtomicU64 = AtomicU64::new(0);

/// One recorded span, as written to the span file.
#[derive(Clone, Debug)]
pub struct RawSpan {
    /// The recording thread.
    pub thread: u64,
    /// Id, unique within its thread.
    pub id: u64,
    /// Id of the enclosing span, 0 at top level.
    pub parent: u64,
    /// Span name.
    pub name: &'static str,
    /// Transaction id (0 outside transactions).
    pub txn: u64,
    /// Start, ns since the first span of the process.
    pub start_ns: u64,
    /// End, ns since the first span of the process.
    pub end_ns: u64,
}

struct Open {
    id: u64,
    sp: Sp,
    start_ns: u64,
    child_ns: u64,
    parent: u64,
    txn: u64,
}

/// Per-thread span recorder. Spans nest strictly (LIFO); self time is
/// computed as each span closes.
pub struct Tracer {
    on: bool,
    /// Whether the current top-level span (and so everything under it)
    /// is recorded: with tracing on, every other one is, so traced and
    /// untraced transactions interleave and the overhead shows as the
    /// difference between their latencies.
    active: bool,
    /// Nesting depth inside an unrecorded top-level span.
    skipped_depth: usize,
    thread: u64,
    epoch: Instant,
    stack: Vec<Open>,
    next_id: u64,
    top_level: u64,
    keep_raw: bool,
    /// Aggregates indexed by `Sp as usize`.
    pub agg: Vec<Agg>,
    /// Raw spans of sampled top-level spans.
    pub raw: Vec<RawSpan>,
}

impl Tracer {
    fn new(on: bool) -> Self {
        Tracer {
            on,
            active: false,
            skipped_depth: 0,
            thread: THREADS.fetch_add(1, Ordering::Relaxed),
            epoch: *EPOCH.get_or_init(Instant::now),
            stack: Vec::new(),
            next_id: 1,
            top_level: 0,
            keep_raw: false,
            agg: Sp::ALL.iter().map(|_| Agg::default()).collect(),
            raw: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span of kind `sp` under the current one.
    pub(crate) fn enter(&mut self, sp: Sp) {
        if !self.on {
            return;
        }
        if self.stack.is_empty() && self.skipped_depth == 0 {
            self.top_level += 1;
            self.active = self.top_level.is_multiple_of(2);
            self.keep_raw = self.active && (self.top_level / 2).is_multiple_of(RAW_EVERY);
        }
        if !self.active {
            self.skipped_depth += 1;
            return;
        }
        let (parent, txn) = self.stack.last().map_or((0, 0), |o| (o.id, o.txn));
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.stack.push(Open { id, sp, start_ns, child_ns: 0, parent, txn });
    }

    /// Closes the innermost span, which must be of kind `sp`; returns
    /// its duration in ns (0 when it was not recorded).
    pub(crate) fn exit(&mut self, sp: Sp) -> u64 {
        if !self.on {
            return 0;
        }
        if self.skipped_depth > 0 {
            self.skipped_depth -= 1;
            return 0;
        }
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("span exit without a matching enter");
        assert_eq!(open.sp, sp, "spans must nest");
        let dur = end_ns - open.start_ns;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let agg = &mut self.agg[sp as usize];
        agg.dur.push(dur);
        agg.self_ns += u128::from(dur.saturating_sub(open.child_ns));
        if self.keep_raw && self.raw.len() < RAW_CAP {
            self.raw.push(RawSpan {
                thread: self.thread,
                id: open.id,
                parent: open.parent,
                name: sp.name(),
                txn: open.txn,
                start_ns: open.start_ns,
                end_ns,
            });
        }
        dur
    }

    /// Whether spans are being recorded right now.
    pub(crate) fn recording(&self) -> bool {
        self.on && self.active && self.skipped_depth == 0
    }

    /// Tags every open span that has no transaction yet with `xid`
    /// (the transaction span opens before `begin` assigns the id).
    fn set_txn(&mut self, xid: u64) {
        for o in self.stack.iter_mut().filter(|o| o.txn == 0) {
            o.txn = xid;
        }
    }
}

/// What a transaction touched: bit `rel % 64` is set for every relation
/// it read (`get`, `scan_range`) or wrote (`insert`, `update`, `delete`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Shape {
    /// Relations read.
    pub read: u64,
    /// Relations written.
    pub wrote: u64,
}

impl Shape {
    fn bit(rel: RelId) -> u64 {
        1 << (rel.0 % 64)
    }

    /// Whether the transaction read `rel`.
    pub fn reads(&self, rel: RelId) -> bool {
        self.read & Self::bit(rel) != 0
    }

    /// Whether the transaction wrote `rel`.
    pub fn writes(&self, rel: RelId) -> bool {
        self.wrote & Self::bit(rel) != 0
    }
}

/// Names the latency class of a committed transaction from its shape.
pub type Classifier = Box<dyn Fn(&Shape) -> &'static str + Send + Sync>;

/// The default classes: `ro` for transactions that wrote nothing, `rw`
/// for the rest.
pub fn by_write_set(shape: &Shape) -> &'static str {
    if shape.wrote == 0 {
        "ro"
    } else {
        "rw"
    }
}

/// Transaction accounting of one thread.
#[derive(Clone, Debug)]
pub struct TxnAcc {
    /// Latency of committed transactions per class, ns.
    pub lat: BTreeMap<&'static str, Samples>,
    /// Transactions begun and ended (commit or abort), retries included.
    pub attempts: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Transactions that ended uncommitted because the engine refused
    /// an operation or the commit (write conflicts and the like).
    pub engine_aborts: u64,
    /// Transactions the client rolled back of its own accord.
    pub client_aborts: u64,
    /// Insert/update payload bytes of committed transactions.
    pub payload_committed: u64,
    /// Rows returned by `get` and `scan_range`.
    pub rows_read: u64,
    /// Rows returned by `scan_range` alone.
    pub scan_rows: u64,
    /// Keys returned by sampled `BPlusTree::range` calls.
    pub range_keys: u64,
    /// `get` time not covered by its decomposed steps, ns.
    pub get_residual_ns: Samples,
    /// With tracing on: latency of committed transactions that were
    /// traced, less the step-by-step repeats they ran, ns.
    pub traced_txn_ns: Samples,
    /// With tracing on: latency of committed transactions that were not,
    /// ns.
    pub untraced_txn_ns: Samples,
    /// Failed output checks and unexpected engine errors.
    pub failures: u64,
    /// The first few failure messages.
    pub failure_msgs: Vec<String>,
}

impl Default for TxnAcc {
    fn default() -> Self {
        TxnAcc {
            lat: BTreeMap::new(),
            attempts: 0,
            commits: 0,
            engine_aborts: 0,
            client_aborts: 0,
            payload_committed: 0,
            rows_read: 0,
            scan_rows: 0,
            range_keys: 0,
            get_residual_ns: samples(),
            traced_txn_ns: samples(),
            untraced_txn_ns: samples(),
            failures: 0,
            failure_msgs: Vec::new(),
        }
    }
}

impl TxnAcc {
    /// Latencies of class `class` (empty when none committed).
    pub fn class(&self, class: &str) -> Samples {
        self.lat.get(class).cloned().unwrap_or_else(samples)
    }

    /// Records a failed check.
    pub fn fail(&mut self, msg: String) {
        self.failures += 1;
        if self.failure_msgs.len() < FAILURE_MSGS {
            self.failure_msgs.push(msg);
        }
    }

    fn merge(&mut self, o: &TxnAcc) {
        for (class, kept) in &o.lat {
            self.lat.entry(class).or_insert_with(samples).merge(kept);
        }
        self.attempts += o.attempts;
        self.commits += o.commits;
        self.engine_aborts += o.engine_aborts;
        self.client_aborts += o.client_aborts;
        self.payload_committed += o.payload_committed;
        self.rows_read += o.rows_read;
        self.scan_rows += o.scan_rows;
        self.range_keys += o.range_keys;
        self.get_residual_ns.merge(&o.get_residual_ns);
        self.traced_txn_ns.merge(&o.traced_txn_ns);
        self.untraced_txn_ns.merge(&o.untraced_txn_ns);
        self.failures += o.failures;
        for m in &o.failure_msgs {
            if self.failure_msgs.len() < FAILURE_MSGS {
                self.failure_msgs.push(m.clone());
            }
        }
    }
}

/// Everything one thread recorded.
pub struct Local {
    /// Transaction accounting.
    pub acc: TxnAcc,
    /// Span aggregates and raw spans.
    pub tracer: Tracer,
    cur: Option<Cur>,
    decompose_seq: u64,
}

impl Local {
    fn new(trace: bool) -> Self {
        Local { acc: TxnAcc::default(), tracer: Tracer::new(trace), cur: None, decompose_seq: 0 }
    }

    /// Folds another thread's recording into this one.
    pub fn merge(&mut self, o: &Local) {
        self.acc.merge(&o.acc);
        for (a, b) in self.tracer.agg.iter_mut().zip(&o.tracer.agg) {
            a.dur.merge(&b.dur);
            a.self_ns += b.self_ns;
        }
        self.tracer.on |= o.tracer.on;
        let room = RAW_CAP.saturating_sub(self.tracer.raw.len());
        self.tracer.raw.extend(o.tracer.raw.iter().take(room).cloned());
    }

    /// Aggregate of span kind `sp`.
    pub fn span(&self, sp: Sp) -> &Agg {
        &self.tracer.agg[sp as usize]
    }
}

struct Cur {
    start: Instant,
    /// Time spent repeating its reads step by step, ns.
    probe_ns: u64,
    /// Rows its reads returned.
    rows: u64,
    /// Whether this transaction's spans are recorded (tracing on only).
    traced: Option<bool>,
    shape: Shape,
    errored: bool,
    payload: u64,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::new(false));
}

/// Resets this thread's recording and turns span tracing on or off.
pub fn start_thread(trace: bool) {
    LOCAL.with(|l| *l.borrow_mut() = Local::new(trace));
}

/// Takes this thread's recording, leaving an empty untraced one.
pub fn finish_thread() -> Local {
    LOCAL.with(|l| std::mem::replace(&mut *l.borrow_mut(), Local::new(false)))
}

fn with<R>(f: impl FnOnce(&mut Local) -> R) -> R {
    LOCAL.with(|l| f(&mut l.borrow_mut()))
}

/// Records a failed output check on this thread.
pub fn fail(msg: String) {
    with(|l| l.acc.fail(msg));
}

/// Opens a span on this thread's tracer.
pub fn enter(sp: Sp) {
    with(|l| l.tracer.enter(sp));
}

/// Closes a span on this thread's tracer; returns its duration in ns.
pub fn exit(sp: Sp) -> u64 {
    with(|l| l.tracer.exit(sp))
}

/// Books `ns` of step-by-step repeats to the current transaction.
fn charge_probe(ns: u64) {
    with(|l| {
        if let Some(c) = l.cur.as_mut() {
            c.probe_ns += ns;
        }
    });
}

/// The instrumented engine.
pub struct Probe<'a> {
    db: &'a SiasDb,
    /// Latency class of each committed transaction.
    classify: Classifier,
}

impl<'a> Probe<'a> {
    /// A probe over `db` that accounts every transaction.
    pub fn new(db: &'a SiasDb) -> Self {
        Probe { db, classify: Box::new(by_write_set) }
    }

    /// Classifies committed transactions with `classify` instead of
    /// [`by_write_set`].
    pub fn classify(mut self, classify: Classifier) -> Self {
        self.classify = classify;
        self
    }

    /// The wrapped engine.
    pub fn db(&self) -> &'a SiasDb {
        self.db
    }

    fn decompose_now(&self, l: &mut Local) -> bool {
        if !l.tracer.recording() {
            return false;
        }
        l.decompose_seq += 1;
        l.decompose_seq.is_multiple_of(DECOMPOSE_EVERY)
    }

    /// Repeats a `get` through the public layer functions, timing each
    /// step, and checks that it finds what `get` returned.
    fn decompose_get(&self, txn: &Txn, rel: RelId, key: u64, got: &Option<Bytes>, get_ns: u64) {
        let res = (|| -> SiasResult<(Option<Bytes>, u64)> {
            let h = self.db.relation_handle(rel)?;
            let pool = &self.db.stack().pool;
            enter(Sp::IndexLookup);
            let vids = h.index.lookup(key);
            let mut steps = exit(Sp::IndexLookup);
            for vid in vids? {
                enter(Sp::VidmapGet);
                let entry = h.vidmap.get(Vid(vid));
                steps += exit(Sp::VidmapGet);
                let Some(entry) = entry else { continue };
                enter(Sp::ChainVisible);
                let walked = chain::visible_version_depth(
                    pool,
                    rel,
                    entry,
                    &txn.snapshot,
                    &self.db.txm().clog,
                );
                steps += exit(Sp::ChainVisible);
                // The walk has just pinned the entrypoint's page, so this
                // access is a pool hit.
                enter(Sp::BufferWithPage);
                let page =
                    pool.with_page(rel, entry.block, |p| p.item(entry.slot).map(<[u8]>::len));
                exit(Sp::BufferWithPage);
                page??;
                match walked?.0 {
                    Some((_, v)) if !v.tombstone => return Ok((Some(v.payload), steps)),
                    _ => {}
                }
            }
            Ok((None, steps))
        })();
        match res {
            Ok((found, steps)) if found == *got => {
                with(|l| l.acc.get_residual_ns.push(get_ns.saturating_sub(steps)));
            }
            Ok(_) => fail(format!("decomposed read of key {key} disagrees with get")),
            Err(e) => fail(format!("decomposed read of key {key} failed: {e}")),
        }
    }

    fn decompose_range(&self, rel: RelId, lo: u64, hi: u64, rows: usize) {
        let res = self.db.relation_handle(rel).and_then(|h| {
            enter(Sp::IndexRange);
            let keys = h.index.range(lo, hi);
            exit(Sp::IndexRange);
            keys
        });
        match res {
            // Every visible row has an index entry; the index may hold
            // more (keys whose rows are not visible to this snapshot).
            Ok(keys) if keys.len() >= rows => with(|l| l.acc.range_keys += keys.len() as u64),
            Ok(keys) => fail(format!(
                "index range [{lo}, {hi}] holds {} keys but the scan returned {rows} rows",
                keys.len()
            )),
            Err(e) => fail(format!("index range [{lo}, {hi}] failed: {e}")),
        }
    }

    /// Wraps one write-side engine call.
    fn write_op(
        &self,
        sp: Sp,
        rel: RelId,
        payload: usize,
        op: impl FnOnce() -> SiasResult<()>,
    ) -> SiasResult<()> {
        enter(sp);
        let r = op();
        with(|l| {
            l.tracer.exit(sp);
            if let Some(c) = l.cur.as_mut() {
                match &r {
                    Ok(()) => {
                        c.shape.wrote |= Shape::bit(rel);
                        c.payload += payload as u64;
                    }
                    Err(_) => c.errored = true,
                }
            }
        });
        r
    }

    /// Ends the current transaction's accounting.
    fn end_txn(&self, committed: bool) {
        with(|l| {
            l.tracer.exit(Sp::Txn);
            let Some(c) = l.cur.take() else { return };
            let acc = &mut l.acc;
            acc.attempts += 1;
            acc.rows_read += c.rows;
            if committed {
                // The step-by-step repeats are the benchmark's own work,
                // not the transaction's: leave them out of its latency.
                let ns = (c.start.elapsed().as_nanos() as u64).saturating_sub(c.probe_ns);
                let class = (self.classify)(&c.shape);
                acc.commits += 1;
                acc.payload_committed += c.payload;
                match c.traced {
                    Some(true) => acc.traced_txn_ns.push(ns),
                    Some(false) => acc.untraced_txn_ns.push(ns),
                    None => {}
                }
                acc.lat.entry(class).or_insert_with(samples).push(ns);
            } else if c.errored {
                acc.engine_aborts += 1;
            } else {
                acc.client_aborts += 1;
            }
        });
    }
}

/// Whether an engine error is a transaction-level refusal that the
/// client answers by retrying, as opposed to a failure.
pub fn retryable(e: &SiasError) -> bool {
    matches!(e, SiasError::WriteConflict { .. } | SiasError::SerializationFailure(_))
}

impl MvccEngine for Probe<'_> {
    fn name(&self) -> &'static str {
        self.db.name()
    }

    fn create_relation(&self, name: &str) -> RelId {
        self.db.create_relation(name)
    }

    fn relation(&self, name: &str) -> Option<RelId> {
        self.db.relation(name)
    }

    fn begin(&self) -> Txn {
        let start = Instant::now();
        with(|l| {
            l.tracer.enter(Sp::Txn);
            l.tracer.enter(Sp::Begin);
        });
        let txn = self.db.begin();
        with(|l| {
            l.tracer.exit(Sp::Begin);
            l.tracer.set_txn(txn.xid.0);
            let traced = l.tracer.on.then(|| l.tracer.recording());
            let shape = Shape::default();
            l.cur = Some(Cur {
                start,
                probe_ns: 0,
                rows: 0,
                traced,
                shape,
                errored: false,
                payload: 0,
            });
        });
        txn
    }

    fn commit(&self, txn: Txn) -> SiasResult<()> {
        let sp = if with(|l| l.cur.as_ref().is_some_and(|c| c.shape.wrote != 0)) {
            Sp::CommitRw
        } else {
            Sp::CommitRo
        };
        enter(sp);
        let r = self.db.commit(txn);
        exit(sp);
        if r.is_err() {
            with(|l| {
                if let Some(c) = l.cur.as_mut() {
                    c.errored = true;
                }
            });
        }
        self.end_txn(r.is_ok());
        r
    }

    fn abort(&self, txn: Txn) {
        enter(Sp::Abort);
        self.db.abort(txn);
        exit(Sp::Abort);
        self.end_txn(false);
    }

    fn insert(&self, txn: &Txn, rel: RelId, key: u64, payload: &[u8]) -> SiasResult<()> {
        self.write_op(Sp::Insert, rel, payload.len(), || self.db.insert(txn, rel, key, payload))
    }

    fn update(&self, txn: &Txn, rel: RelId, key: u64, payload: &[u8]) -> SiasResult<()> {
        self.write_op(Sp::Update, rel, payload.len(), || self.db.update(txn, rel, key, payload))
    }

    fn delete(&self, txn: &Txn, rel: RelId, key: u64) -> SiasResult<()> {
        self.write_op(Sp::Delete, rel, 0, || self.db.delete(txn, rel, key))
    }

    fn get(&self, txn: &Txn, rel: RelId, key: u64) -> SiasResult<Option<Bytes>> {
        enter(Sp::Get);
        let r = self.db.get(txn, rel, key);
        let (ns, decompose) = with(|l| {
            let ns = l.tracer.exit(Sp::Get);
            if let Some(c) = l.cur.as_mut() {
                c.shape.read |= Shape::bit(rel);
                match &r {
                    Ok(found) => c.rows += u64::from(found.is_some()),
                    Err(_) => c.errored = true,
                }
            }
            (ns, r.is_ok() && self.decompose_now(l))
        });
        if decompose {
            enter(Sp::ProbeGet);
            self.decompose_get(txn, rel, key, r.as_ref().expect("decomposed only on Ok"), ns);
            charge_probe(exit(Sp::ProbeGet));
        }
        r
    }

    fn scan_range(&self, txn: &Txn, rel: RelId, lo: u64, hi: u64) -> SiasResult<Vec<(u64, Bytes)>> {
        enter(Sp::ScanRange);
        let r = self.db.scan_range(txn, rel, lo, hi);
        let decompose = with(|l| {
            l.tracer.exit(Sp::ScanRange);
            if let Some(c) = l.cur.as_mut() {
                c.shape.read |= Shape::bit(rel);
                match &r {
                    Ok(rows) => {
                        c.rows += rows.len() as u64;
                        l.acc.scan_rows += rows.len() as u64;
                    }
                    Err(_) => c.errored = true,
                }
            }
            r.is_ok() && self.decompose_now(l)
        });
        if decompose {
            enter(Sp::ProbeRange);
            self.decompose_range(rel, lo, hi, r.as_ref().map_or(0, Vec::len));
            charge_probe(exit(Sp::ProbeRange));
        }
        r
    }

    fn maintenance(&self, checkpoint: bool) {
        enter(Sp::Maintenance);
        self.db.maintenance(checkpoint);
        exit(Sp::Maintenance);
    }

    fn set_serializable(&self) {
        self.db.set_serializable();
    }

    fn serialization_aborts(&self) -> u64 {
        self.db.serialization_aborts()
    }

    fn obs_registry(&self) -> Option<&std::sync::Arc<Registry>> {
        self.db.obs_registry()
    }

    fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.db.metrics_snapshot()
    }
}
