//! End-to-end and per-layer benchmark of the SIAS engine.
//!
//! Three workloads — `kv-point`, `scan-churn` and `tpcc` — drive one
//! SIAS-t2 engine each through its public API, check every output, and
//! report the end-to-end metrics (untraced run) or the per-layer metrics
//! (traced run). See `perfbench/README.md` for why each workload exists.

#![forbid(unsafe_code)]

pub mod counters;
pub mod kv;
pub mod kvtable;
pub mod metrics;
pub mod payload;
pub mod probe;
pub mod report;
pub mod scan;
pub mod stats;
pub mod steal;
pub mod tpcc;

use std::io::Write;
use std::path::{Path, PathBuf};

use probe::Local;
use report::{Kind, Report};
use steal::{StealMeter, MAX_STEAL_SHARE};

/// What one invocation produced.
pub struct Run {
    /// Metrics, failures and notes.
    pub report: Report,
    /// The traced phase's recording (traced runs only).
    pub spans: Option<Local>,
}

/// A workload the benchmark can run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop point reads and read-modify-writes.
    KvPoint,
    /// Whole-table reports against an open-loop updater with GC.
    ScanChurn,
    /// The discrete-event TPC-C driver.
    Tpcc,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::KvPoint, Workload::ScanChurn, Workload::Tpcc];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KvPoint => "kv-point",
            Workload::ScanChurn => "scan-churn",
            Workload::Tpcc => "tpcc",
        }
    }

    /// Runs the workload at its benchmark size.
    pub fn run(self, seed: u64, seconds: f64, trace: bool) -> Run {
        match self {
            Workload::KvPoint => kv::run(&kv::KvConfig::standard(), seed, seconds, trace),
            Workload::ScanChurn => scan::run(&scan::ScanConfig::standard(), seed, seconds, trace),
            Workload::Tpcc => tpcc::run(&tpcc::TpccRun::standard(), seed, seconds, trace),
        }
    }
}

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an untraced one.
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

/// Usage text.
pub const USAGE: &str = "usage: sias-perfbench --workload <kv-point|scan-churn|tpcc> --seed <n> \
--seconds <n> --trace <0|1> [--trace-out <file>]";

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--trace-out F]`.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} outside (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_out,
    })
}

/// Writes the raw spans of a traced run as JSON lines.
pub fn write_spans(path: &Path, spans: &Local) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &spans.tracer.raw {
        writeln!(
            out,
            "{{\"thread\": {}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"txn\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.thread, s.id, s.parent, s.name, s.txn, s.start_ns, s.end_ns
        )?;
    }
    out.flush()?;
    Ok(spans.tracer.raw.len())
}

/// Runs the benchmark for `args`, prints the report and the JSON line,
/// and returns whether every check passed.
pub fn main_with(args: &Args) -> bool {
    let meter = StealMeter::start();
    let mut run = args.workload.run(args.seed, args.seconds, args.trace);
    let steal = meter.since();
    run.report
        .notes
        .push(format!("CPU steal during the run: {:.2}% of CPU time", steal.value() * 100.0));
    // An untraced run takes its timings from the windows with the least
    // steal, and only their steal counts; a traced run's timings span
    // the whole run.
    let steal = run.report.timing_steal.unwrap_or(steal);
    if steal.value() > MAX_STEAL_SHARE {
        run.report.fail(format!(
            "CPU steal of {:.2}% where the timings were taken exceeds the {:.0}% a valid run may see",
            steal.value() * 100.0,
            MAX_STEAL_SHARE * 100.0
        ));
    }
    if let Some(spans) = &run.spans {
        let path = args.trace_out.clone().unwrap_or_else(|| {
            PathBuf::from(format!(
                ".bench_out/spans-{}-seed{}.jsonl",
                args.workload.name(),
                args.seed
            ))
        });
        match write_spans(&path, spans) {
            Ok(n) => run.report.notes.push(format!("wrote {n} raw spans to {}", path.display())),
            Err(e) => run.report.fail(format!("writing spans to {}: {e}", path.display())),
        }
    }
    run.report.check_finite();
    let kind = if args.trace { Kind::Layer } else { Kind::EndToEnd };
    print!("{}", run.report.text());
    println!("{}", run.report.json(kind));
    run.report.correct()
}
