//! The benchmark's output: a readable block of every metric with its
//! base, then one JSON line for scripts that compare runs.

use crate::probe::TxnAcc;
use crate::stats::{Pct, Ratio};

/// Which list a metric belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// End-to-end: printed in the JSON line of an untraced run.
    EndToEnd,
    /// Per-layer: printed in the JSON line of a traced run.
    Layer,
    /// Workload-specific figure: printed in the readable block only.
    Info,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Its value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Where the value came from (sample count, numerator and
    /// denominator, ...).
    pub basis: String,
    /// Which list it belongs to.
    pub kind: Kind,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in the order they were added.
    pub metrics: Vec<Metric>,
    /// Transactions attempted in the measured phases.
    pub attempted: u64,
    /// Failed output checks and unexpected engine errors.
    pub failed: u64,
    /// Messages of the first failures.
    pub failure_msgs: Vec<String>,
    /// Free-form lines printed before the metrics (span tables, ...).
    pub notes: Vec<String>,
    /// CPU steal over the windows the timings came from, where a run
    /// keeps only some of its windows.
    pub timing_steal: Option<Ratio>,
}

impl Report {
    /// Adds a plain value.
    pub fn value(&mut self, kind: Kind, name: &str, value: f64, unit: &'static str, basis: String) {
        self.metrics.push(Metric { name: name.to_string(), value, unit, basis, kind });
    }

    /// Adds a percentile, scaled from its sample unit by `scale`.
    pub fn pct(&mut self, kind: Kind, name: &str, p: Pct, scale: f64, unit: &'static str) {
        let basis = format!("{} of n={}, {} beyond", p.label(), p.n, p.beyond);
        self.value(kind, name, p.value * scale, unit, basis);
    }

    /// Adds a ratio with its base.
    pub fn ratio(
        &mut self,
        kind: Kind,
        name: &str,
        r: Ratio,
        unit: &'static str,
        num: &str,
        den: &str,
    ) {
        let basis = format!("{} {num} / {} {den}", r.num, r.den);
        self.value(kind, name, r.value(), unit, basis);
    }

    /// Records a failure.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failure_msgs.len() < 16 {
            self.failure_msgs.push(msg);
        }
    }

    /// Takes over the failed checks a probe recorded.
    pub fn absorb(&mut self, acc: &TxnAcc) {
        for m in &acc.failure_msgs {
            self.fail(m.clone());
        }
        // Count the failures whose message was not kept.
        self.failed += acc.failures.saturating_sub(acc.failure_msgs.len() as u64);
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The readable block.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            out.push_str(n);
            out.push('\n');
        }
        for (kind, title) in [
            (Kind::EndToEnd, "end-to-end"),
            (Kind::Info, "workload figures"),
            (Kind::Layer, "per-layer"),
        ] {
            let ms: Vec<&Metric> = self.metrics.iter().filter(|m| m.kind == kind).collect();
            if ms.is_empty() {
                continue;
            }
            out.push_str(&format!("-- {title}\n"));
            for m in ms {
                out.push_str(&format!(
                    "{:<38} {:>16.4} {:<6} ({})\n",
                    m.name, m.value, m.unit, m.basis
                ));
            }
        }
        for f in &self.failure_msgs {
            out.push_str(&format!("FAILED CHECK: {f}\n"));
        }
        out
    }

    /// The JSON line: the metrics of `kind` as one JSON object.
    pub fn json(&self, kind: Kind) -> String {
        let mut parts = Vec::new();
        for m in self.metrics.iter().filter(|m| m.kind == kind) {
            parts.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        )
    }

    /// Marks every non-finite value as a failure (JSON cannot carry it).
    pub fn check_finite(&mut self) {
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| format!("metric {} is not a finite number", m.name))
            .collect();
        for b in bad {
            self.fail(b);
        }
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values print as 0 (and fail [`Report::check_finite`]).
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report { attempted: 10, ..Default::default() };
        r.value(Kind::EndToEnd, "setup_s", 0.25, "s", String::new());
        r.value(Kind::Layer, "x", 1.0, "count", String::new());
        let line = r.json(Kind::EndToEnd);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        r.fail("boom".into());
        assert!(r.json(Kind::Layer).starts_with("{\"correct\": false"));
    }

    #[test]
    fn percentile_and_ratio_carry_their_base() {
        let mut r = Report::default();
        let p = crate::stats::pct(&(1..=1000).collect::<Vec<u64>>(), 0.99);
        r.pct(Kind::EndToEnd, "lat_us", p, 1e-3, "us");
        r.ratio(Kind::Layer, "hit_ratio", Ratio::new(3u32, 4u32), "ratio", "hits", "lookups");
        let text = r.text();
        assert!(text.contains("p99 of n=1000, 10 beyond"), "{text}");
        assert!(text.contains("3 hits / 4 lookups"), "{text}");
        assert!((r.metrics[0].value - 0.99).abs() < 1e-12);
    }

    #[test]
    fn non_finite_values_fail_the_run() {
        let mut r = Report::default();
        r.value(Kind::EndToEnd, "bad", f64::NAN, "s", String::new());
        r.check_finite();
        assert!(!r.correct());
        assert!(
            r.json(Kind::EndToEnd).contains("\"value\": 0,")
                || r.json(Kind::EndToEnd).contains("\"value\": 0}")
        );
    }
}
