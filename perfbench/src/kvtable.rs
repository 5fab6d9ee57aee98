//! The key-value table shared by the kv-point and scan-churn workloads:
//! seeded key choice, bulk load, and the black-box history the anomaly
//! checker reads.

use std::collections::{BTreeMap, BTreeSet};

use sias_common::{RelId, SiasResult, Xid};
use sias_core::SiasDb;
use sias_txn::MvccEngine;
use sias_workload::{check::HistOp, check::HistOutcome, check::TxnRecord, WriteTag};

use crate::payload;

/// Keys inserted per load transaction.
const LOAD_BATCH: u64 = 1000;

/// splitmix64 stream: the benchmark's only source of randomness, so a
/// seed fixes every input.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, a, b)`: one per run, round and thread.
    pub fn new(seed: u64, a: u64, b: u64) -> Self {
        Rng(seed ^ a.wrapping_mul(0xa076_1d64_78bd_642f) ^ b.wrapping_mul(0xe703_7ed1_a0b4_28db))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// A committed history record.
pub fn committed(xid: Xid, ops: Vec<HistOp>) -> TxnRecord {
    TxnRecord { xid, ops, outcome: HistOutcome::Committed { commit_seq: 0, acked_at_record: 0 } }
}

/// Creates relation `name` holding keys `0..keys`, each with a payload
/// written by its load transaction. Returns the relation and the load
/// transactions' history records.
pub fn load(db: &SiasDb, name: &str, keys: u64) -> SiasResult<(RelId, Vec<TxnRecord>)> {
    let rel = db.create_relation(name);
    let mut records = Vec::new();
    let mut next = 0;
    while next < keys {
        let end = (next + LOAD_BATCH).min(keys);
        let t = db.begin();
        let xid = t.xid;
        let mut ops = Vec::with_capacity((end - next) as usize);
        for (seq, key) in (next..end).enumerate() {
            let tag = WriteTag { xid, seq: seq as u32 };
            db.insert(&t, rel, key, &payload::encode(key, tag))?;
            ops.push(HistOp::Write { key, tag });
        }
        db.commit(t)?;
        records.push(committed(xid, ops));
        next = end;
    }
    Ok((rel, records))
}

/// Each key's committed version order, oldest first, read from the
/// engine's version chains: the order the G0 check compares writers by.
pub fn version_order(
    db: &SiasDb,
    rel: RelId,
    committed: &BTreeSet<Xid>,
) -> SiasResult<BTreeMap<u64, Vec<WriteTag>>> {
    let h = db.relation_handle(rel)?;
    let mut entries = Vec::new();
    h.vidmap.for_each(|_, tid| entries.push(tid));
    let mut order = BTreeMap::new();
    for entry in entries {
        let chain = sias_core::chain::collect_chain(&db.stack().pool, rel, entry)?;
        let mut key = None;
        let mut tags = Vec::new();
        for (_, v) in chain.iter().rev() {
            if let Some((k, tag)) = payload::decode(&v.payload) {
                if committed.contains(&tag.xid) {
                    key = Some(k);
                    tags.push(tag);
                }
            }
        }
        if let Some(k) = key {
            order.insert(k, tags);
        }
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_bounded() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(1, 2, 3);
                move |_| r.below(10)
            })
            .collect();
        let mut r = Rng::new(1, 2, 3);
        let b: Vec<u64> = (0..8).map(|_| r.below(10)).collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| x < 10));
        assert_ne!(Rng::new(1, 2, 3).next_u64(), Rng::new(2, 2, 3).next_u64());
    }
}
