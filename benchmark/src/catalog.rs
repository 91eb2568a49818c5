//! The metric catalogue: every name the benchmark may print, with its
//! unit and direction. `BENCHMARK.json` lists the same entries; a unit
//! test keeps the two in step, and a run that fails to produce one of
//! them exits non-zero.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogue entry. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen; per-layer metrics have none.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Metrics a user of the system sees; measured with tracing off. The
/// builder contract wants every one of them from every workload, so the
/// workload-specific figures are carried by slots: each workload names
/// two operation classes `a` and `b` and reports the median and the
/// highest supported percentile of each, and the work it completes per
/// second (see the table in `README.md`).
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.2),
    e2e("a_p50_ms", "ms", Lower, 0.25),
    e2e("a_tail_ms", "ms", Lower, 0.25),
    e2e("b_p50_ms", "ms", Lower, 0.25),
    e2e("b_tail_ms", "ms", Lower, 0.25),
    e2e("rate_per_s", "1/s", Higher, 0.25),
];

/// Metrics of single layers (layer = module); measured in the traced run.
pub const PER_LAYER: &[Metric] = &[
    layer("gen.generate_s", "s", Lower),
    layer("pgraph.csr_s", "s", Lower),
    layer("embed.walks_s", "s", Lower),
    layer("embed.sgns_s", "s", Lower),
    layer("embed.kmeans_s", "s", Lower),
    layer("embed.walk_steps", "count", Lower),
    layer("linkage.block_build_s", "s", Lower),
    layer("linkage.decide_ns_per_pair", "ns", Lower),
    layer("core.augment_embed_s", "s", Lower),
    layer("core.augment_compare_s", "s", Lower),
    layer("core.augment_other_s", "s", Lower),
    layer("core.comparisons", "count", Lower),
    layer("core.links_added", "count", Higher),
    layer("core.rounds", "count", Lower),
    layer("core.links_per_comparison", "ratio", Higher),
    layer("core.family_recall", "ratio", Higher),
    layer("core.family_precision", "ratio", Higher),
    layer("core.load_facts_control_s", "s", Lower),
    layer("core.load_facts_closelink_s", "s", Lower),
    layer("core.load_facts_per_s", "1/s", Higher),
    layer("core.materialize_control_s", "s", Lower),
    layer("core.materialize_closelink_s", "s", Lower),
    layer("datalog.parse_us", "us", Lower),
    layer("datalog.analyze_us", "us", Lower),
    layer("datalog.engine_new_us", "us", Lower),
    layer("datalog.control_run_s", "s", Lower),
    layer("datalog.control_rounds", "count", Lower),
    layer("datalog.control_derived", "count", Lower),
    layer("datalog.control_facts_per_s", "1/s", Higher),
    layer("datalog.closelink_run_s", "s", Lower),
    layer("datalog.closelink_rounds", "count", Lower),
    layer("datalog.closelink_derived", "count", Lower),
    layer("datalog.closelink_facts_per_s", "1/s", Higher),
    layer("datalog.query_parse_ns", "ns", Lower),
    layer("datalog.goal_matches_us", "us", Lower),
    layer("datalog.goal_matches_ns_per_row", "ns", Lower),
    layer("incr.session_new_s", "s", Lower),
    layer("incr.parse_update_us", "us", Lower),
    layer("incr.apply_update_ms", "ms", Lower),
    layer("incr.apply_vs_recompute_ratio", "ratio", Lower),
    layer("incr.full_recompute_frac", "ratio", Lower),
    layer("incr.replayed_units_per_update", "count", Lower),
    layer("incr.changed_facts_per_update", "count", Lower),
    layer("store.wal_append_ms", "ms", Lower),
    layer("store.wal_bytes_per_update", "B", Lower),
    layer("store.snapshot_write_ms", "ms", Lower),
    layer("store.snapshot_bytes", "B", Lower),
    layer("store.bytes_per_fact", "B", Lower),
    layer("store.open_s", "s", Lower),
    layer("store.replay_tail_s", "s", Lower),
    layer("store.replay_ms_per_frame", "ms", Lower),
    layer("serve.decode_ns", "ns", Lower),
    layer("serve.pin_ns", "ns", Lower),
    layer("serve.lookup_us", "us", Lower),
    layer("serve.encode_ns", "ns", Lower),
    layer("serve.rows_per_lookup", "count", Lower),
    layer("serve.tcp_overhead_us", "us", Lower),
    layer("serve.db_clone_ms", "ms", Lower),
    layer("serve.epoch_commit_ms", "ms", Lower),
    layer("serve.read_p99_under_write_us", "us", Lower),
    layer("serve.swap_stall_max_ns", "ns", Lower),
    layer("serve.update_max_ms", "ms", Lower),
    layer("serve.writer_late_ms_max", "ms", Lower),
    layer("par.closelink_t2_ratio", "ratio", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
    layer("trace.unaccounted_frac", "ratio", Lower),
];

/// Counts that repeat exactly for one seed, so later changes may rest
/// claims on them; `--sets 2` asserts they are identical across sets.
pub const EXACT_COUNTS: &[&str] = &[
    "core.comparisons",
    "core.links_added",
    "core.rounds",
    "datalog.control_derived",
    "datalog.control_rounds",
    "datalog.closelink_derived",
    "datalog.closelink_rounds",
    "embed.walk_steps",
    "store.wal_bytes_per_update",
    "store.snapshot_bytes",
];

#[cfg(test)]
mod tests {
    use super::*;
    use serve::json::{parse_json, Json};

    fn names_valid(metrics: &[Metric]) {
        for m in metrics {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn catalogue_respects_the_contract_limits() {
        names_valid(END_TO_END);
        names_valid(PER_LAYER);
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound.unwrap() <= 0.25));
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        all.sort_unstable();
        let n = all.len();
        all.dedup();
        assert_eq!(all.len(), n, "metric names are used once");
        for c in EXACT_COUNTS {
            assert!(PER_LAYER.iter().any(|m| m.name == *c), "{c}");
        }
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json lacks '{key}'")
        };
        items
            .iter()
            .map(|m| {
                (
                    m.str_of("name").unwrap().to_owned(),
                    m.str_of("unit").unwrap().to_owned(),
                    m.str_of("better").unwrap().to_owned(),
                    m.num_of("bound"),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = parse_json(&text).expect("BENCHMARK.json parses");
        let ours = |ms: &[Metric]| -> Vec<_> {
            ms.iter()
                .map(|m| {
                    (
                        m.name.to_owned(),
                        m.unit.to_owned(),
                        m.better.as_str().to_owned(),
                        m.bound,
                    )
                })
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), ours(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), ours(PER_LAYER));
        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            panic!("workloads")
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.str_of("name").unwrap())
            .collect();
        let ours: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
        assert_eq!(
            doc.num_of("run_seconds"),
            Some(crate::RUN_SECONDS as f64),
            "run_seconds"
        );
    }
}
