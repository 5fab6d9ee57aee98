//! Self-tests of the benchmark: a tiny run of every workload, traced and
//! untraced, with every output check active; the tail-support check
//! against too few samples; the decomposed read path against `get`; the
//! report check against bad rows; and the metric lists of
//! `BENCHMARK.json` against what the program prints.

use bytes::Bytes;
use sias_common::Xid;
use sias_core::SiasDb;
use sias_perfbench::probe::{self, Probe, Sp, DECOMPOSE_EVERY};
use sias_perfbench::report::Kind;
use sias_perfbench::{kv, kvtable, payload, scan, tpcc, Run};
use sias_storage::StorageConfig;
use sias_txn::MvccEngine;
use sias_workload::WriteTag;

/// Metric names listed under `section` of the repository's
/// `BENCHMARK.json` (a flat scan: each entry's `"name"` up to the next
/// section key).
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let rest = &text[start + section.len() + 2..];
    let end = ["\"end_to_end\"", "\"per_layer\"", "\"workloads\"", "\"run_seconds\""]
        .iter()
        .filter_map(|k| rest.find(k))
        .min()
        .unwrap_or(rest.len());
    rest[..end]
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn names(run: &Run, kind: Kind) -> Vec<String> {
    run.report.metrics.iter().filter(|m| m.kind == kind).map(|m| m.name.clone()).collect()
}

fn assert_clean(run: &Run, what: &str) {
    assert!(run.report.correct(), "{what} failed its checks:\n{}", run.report.text());
    assert!(run.report.attempted > 0, "{what} attempted nothing");
    assert!(
        run.report.metrics.iter().all(|m| m.value.is_finite()),
        "{what}: {}",
        run.report.text()
    );
}

fn smoke(what: &str, run: impl Fn(bool) -> Run) {
    let plain = run(false);
    assert_clean(&plain, what);
    assert_eq!(names(&plain, Kind::EndToEnd), listed("end_to_end"), "{what} end-to-end names");
    assert!(plain.spans.is_none());
    let end_to_end = |name: &str| {
        plain.report.metrics.iter().find(|m| m.name == name).map(|m| m.value).expect(name)
    };
    for name in ["commits_per_s", "ro_txn_p50_us", "rw_txn_p50_us", "write_amp", "space_amp"] {
        assert!(end_to_end(name) > 0.0, "{what}: {name} is 0\n{}", plain.report.text());
    }
    assert!(plain.report.json(Kind::EndToEnd).starts_with("{\"correct\": true"));

    let traced = run(true);
    assert_clean(&traced, what);
    assert_eq!(names(&traced, Kind::Layer), listed("per_layer"), "{what} per-layer names");
    let spans = traced.spans.as_ref().expect("a traced run returns its spans");
    assert!(spans.span(Sp::Txn).dur.count() > 0, "{what} recorded no transaction span");
    assert!(spans.span(Sp::Begin).self_ns > 0);
}

#[test]
fn kv_point_smoke() {
    smoke("kv-point", |trace| kv::run(&kv::KvConfig::tiny(), 7, 0.2, trace));
}

#[test]
fn scan_churn_smoke() {
    smoke("scan-churn", |trace| scan::run(&scan::ScanConfig::tiny(), 7, 0.4, trace));
}

#[test]
fn tpcc_smoke() {
    smoke("tpcc", |trace| tpcc::run(&tpcc::TpccRun::tiny(), 7, 3.0, trace));
}

#[test]
fn thin_tails_fail_the_run() {
    let cfg = kv::KvConfig { txns_per_thread: 100, ..kv::KvConfig::tiny() };
    let run = kv::run(&cfg, 7, 0.01, false);
    assert!(!run.report.correct(), "200 txns cannot support a p99");
    let msgs = run.report.failure_msgs.join("\n");
    assert!(msgs.contains("ro_txn_tail_us: p99 leaves"), "{msgs}");
    assert!(msgs.contains("rw_txn_tail_us: p99 leaves"), "{msgs}");
}

#[test]
fn decomposed_reads_agree_with_get() {
    let db = SiasDb::open(StorageConfig::in_memory());
    let (rel, _) = kvtable::load(&db, "kv", 300).unwrap();
    let probe = Probe::new(&db);
    probe::start_thread(true);
    let n = DECOMPOSE_EVERY;
    for i in 0..40u64 {
        let key = (i * 7) % 300;
        let t = probe.begin();
        // Rewrite the key first in half the transactions (traced and
        // untraced alike), so the walk also meets the transaction's own
        // newer version.
        if i % 4 < 2 {
            let tag = WriteTag { xid: t.xid, seq: 0 };
            probe.update(&t, rel, key, &payload::encode(key, tag)).unwrap();
        }
        // One in DECOMPOSE_EVERY traced gets is decomposed: in a traced
        // transaction, the last get of the key and the last of the
        // absent key.
        for _ in 0..n {
            let got = probe.get(&t, rel, key).unwrap().expect("loaded key");
            assert!(payload::decode_for(key, &got).is_some());
        }
        for _ in 0..n {
            assert_eq!(probe.get(&t, rel, 10_000).unwrap(), None, "absent key");
        }
        probe.commit(t).unwrap();
    }
    let local = probe::finish_thread();
    assert_eq!(local.acc.failures, 0, "{:?}", local.acc.failure_msgs);
    // Every other transaction is traced.
    assert_eq!(local.span(Sp::Get).dur.count(), 20 * 2 * n);
    let decomposed = local.span(Sp::IndexLookup).dur.count();
    assert_eq!(decomposed, 40, "20 traced transactions x 2 decomposed gets");
    assert_eq!(local.acc.get_residual_ns.count(), decomposed);
    assert_eq!(local.span(Sp::ChainVisible).dur.count(), 20, "absent keys have no chain");
    assert_eq!(local.acc.traced_txn_ns.count() + local.acc.untraced_txn_ns.count(), 40);
}

#[test]
fn report_check_rejects_wrong_rows() {
    let row =
        |k: u64| (k, Bytes::copy_from_slice(&payload::encode(k, WriteTag { xid: Xid(3), seq: 0 })));
    let good: Vec<_> = (0..5).map(row).collect();
    assert_eq!(scan::check_report(&good, 5), Ok(()));
    assert!(scan::check_report(&good[..4], 5).is_err(), "missing row");
    let mut swapped = good.clone();
    swapped.swap(1, 2);
    assert!(scan::check_report(&swapped, 5).is_err(), "out of order");
    let mut foreign = good.clone();
    foreign[3].1 = row(4).1;
    assert!(scan::check_report(&foreign, 5).is_err(), "another key's payload");
    let mut torn = good;
    let mut bytes = torn[0].1.to_vec();
    bytes[50] ^= 1;
    torn[0].1 = Bytes::from(bytes);
    assert!(scan::check_report(&torn, 5).is_err(), "corrupted payload");
}

#[test]
fn cli_takes_the_benchmark_flags() {
    let args: Vec<String> =
        ["--workload", "tpcc", "--seed", "4", "--seconds", "10", "--trace", "1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
    let a = sias_perfbench::parse_args(&args).unwrap();
    assert_eq!(a.workload, sias_perfbench::Workload::Tpcc);
    assert_eq!((a.seed, a.seconds, a.trace), (4, 10.0, true));
    assert!(sias_perfbench::parse_args(&args[..6]).is_err(), "--trace missing");
    let mut bad = args.clone();
    bad[1] = "nope".into();
    assert!(sias_perfbench::parse_args(&bad).is_err());
    bad = args;
    bad[7] = "2".into();
    assert!(sias_perfbench::parse_args(&bad).is_err());
}
