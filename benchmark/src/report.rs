//! What a run collects — metrics and checked operations — and how it
//! is printed.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::catalog::Metric;

/// Metrics and operation counts of one run.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    /// The workload's own figures under their own names and units; the
    /// catalogued slots carry the same measurements.
    named: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
}

impl Report {
    /// Records a catalogued metric. Each is measured in one place: a
    /// second value for one name is a bug of the harness.
    pub fn put(&mut self, name: &'static str, value: f64) {
        let before = self.metrics.insert(name, value);
        assert!(before.is_none(), "metric {name} is recorded twice");
    }

    /// Records one of the workload's figures under its own name.
    pub fn name(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.named.push((name, value, unit));
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.ops(1, u64::from(!ok));
        if !ok {
            self.failures.push(what());
        }
    }

    /// Counts operations checked in bulk.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn has(&self, name: &str) -> bool {
        self.metrics.contains_key(name)
    }

    /// Names of `wanted` the run did not produce.
    pub fn missing(&self, wanted: &[Metric]) -> Vec<&'static str> {
        wanted
            .iter()
            .map(|m| m.name)
            .filter(|n| !self.has(n))
            .collect()
    }

    /// The result object of the builder contract, restricted to `wanted`.
    pub fn result_json(&self, wanted: &[Metric]) -> String {
        let metrics: Vec<String> = wanted
            .iter()
            .filter_map(|m| {
                let v = self.metrics.get(m.name)?;
                Some(format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    number(*v),
                    m.unit
                ))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// `name value unit`, one metric per line: the named figures, then
    /// the catalogued metrics of `wanted`.
    pub fn lines(&self, wanted: &[Metric]) -> Vec<String> {
        let named = self.named.iter().map(|(n, v, u)| (*n, *v, *u));
        let listed = wanted
            .iter()
            .filter_map(|m| Some((m.name, *self.metrics.get(m.name)?, m.unit)));
        named
            .chain(listed)
            .map(|(n, v, u)| format!("{n} {} {u}", number(v)))
            .collect()
    }
}

/// A JSON number with every digit measured (never `NaN` or `inf`).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Seconds `f` takes, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let r = std::hint::black_box(f());
    (start.elapsed().as_secs_f64(), r)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::END_TO_END;
    use serve::json::parse_json;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.put("setup_s", 0.8127);
        r.put("a_p50_ms", 5123.25);
        r.ops(1000, 0);
        r.check(true, || unreachable!());
        let doc = parse_json(&r.result_json(END_TO_END)).expect("valid JSON");
        let serve::json::Json::Obj(fields) = &doc else {
            panic!("object expected")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.num_of("attempted"), Some(1001.0));
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.num_of("value"), Some(0.8127));
        assert_eq!(setup.str_of("unit"), Some("s"));
        assert_eq!(r.missing(END_TO_END).len(), END_TO_END.len() - 2);
        r.name("augment_s", 5.12325, "s");
        assert_eq!(
            r.lines(&END_TO_END[..1]),
            ["augment_s 5.12325 s", "setup_s 0.8127 s"]
        );
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.check(false, || "lookup 7 answered wrongly".into());
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (1, 1));
        assert!(r.result_json(&[]).starts_with("{\"correct\": false"));
    }

    #[test]
    fn peak_rss_reads_this_process() {
        assert!(peak_rss_mib() > 1.0);
    }
}
