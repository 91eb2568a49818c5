//! Machine-readable point-lookup benchmark: `repro --exp magic --bench-json`.
//!
//! Measures what goal-directed evaluation buys: for single-source
//! `control` and `close_link` goals over a deterministically generated
//! company graph, the demand (magic-sets) path of [`Engine::query`] is
//! timed against a full bottom-up fixpoint answering the same goal by
//! filtering. Both paths must return byte-identical canonical rows
//! (`outputs_match`); the artifact records the wall-clock ratio and its
//! integer floor (`win_factor`), and the validator rejects any document
//! where a lookup failed to take the demanded path, diverged, or won by
//! less than an integer factor (`win_factor < 2`).
//!
//! Same discipline as [`crate::bench_json`]: writer and validator are
//! hand-rolled next to each other, and `repro` validates in-process before
//! writing `BENCH_magic.json`.

use std::time::Instant;

use datalog::{goal_matches, Database, Engine, Program, Query};
use gen::company::{generate, CompanyGraphConfig};
use vada_link::mapping::load_facts;
use vada_link::model::CompanyGraph;
use vada_link::programs::{CLOSELINK_PROGRAM, CONTROL_PROGRAM};

use crate::bench_json::{check_doc_header, esc, non_empty_array, num, want_num, JVal};

/// Schema tag written into — and demanded from — every magic bench
/// document.
pub const MAGIC_SCHEMA: &str = "vadalink-bench-magic/1";

/// Close-link threshold used for the benchmark run (the paper's default).
const CLOSELINK_THRESHOLD: f64 = 0.2;

/// Measurements for one `(program, goal)` point lookup.
#[derive(Debug, Clone)]
pub struct MagicBench {
    /// Program name (`control`, `close_link`).
    pub name: &'static str,
    /// The goal evaluated, e.g. `control("n42", X)?`.
    pub goal: String,
    /// Best-of-`repeats` wall time of the goal-directed path.
    pub query_secs: f64,
    /// Best-of-`repeats` wall time of full evaluation plus filtering.
    pub full_secs: f64,
    /// `full_secs / query_secs` — what demand restriction buys.
    pub speedup: f64,
    /// `floor(speedup)` — the integer-factor win the validator enforces.
    pub win_factor: u64,
    /// Number of matching answer rows (identical across paths).
    pub answers: usize,
    /// Facts derived by the demanded run vs the full run.
    pub query_derived: usize,
    pub full_derived: usize,
    /// Whether the rewrite actually restricted evaluation (no fallback).
    pub demanded: bool,
    /// Whether both paths returned byte-identical canonical rows.
    pub outputs_match: bool,
}

/// Benchmark workload knobs.
#[derive(Debug, Clone, Copy)]
pub struct MagicConfig {
    /// Person nodes in the generated company graph. The graph carries as
    /// many companies as persons — company registries are company-heavy,
    /// and the control/close_link cones consist of company-company
    /// ownership chains.
    pub persons: usize,
    /// Generator seed.
    pub seed: u64,
    /// Timing repeats per path; the minimum is reported.
    pub repeats: usize,
    /// Single-source goals per program, spread across the company id
    /// range.
    pub goals_per_program: usize,
}

fn fresh_db(g: &CompanyGraph, threshold: Option<f64>) -> Database {
    let mut db = Database::new();
    load_facts(g, &mut db);
    if let Some(t) = threshold {
        db.assert_fact("th", &[datalog::Const::float(t)])
            .expect("arity");
    }
    db
}

/// Company symbols spread across the id range, one per requested goal.
fn sources(g: &CompanyGraph, n: usize) -> Vec<String> {
    let all: Vec<String> = g.companies().map(|c| format!("n{}", c.index())).collect();
    assert!(!all.is_empty(), "generated graph has no companies");
    (0..n.max(1))
        .map(|i| all[i * (all.len() - 1) / n.max(1)].clone())
        .collect()
}

/// Runs the point-lookup sweep: for each program and source company, time
/// the goal-directed path against full evaluation of the same goal.
pub fn run_magic_bench(cfg: &MagicConfig) -> Vec<MagicBench> {
    let out = generate(&CompanyGraphConfig {
        persons: cfg.persons,
        companies: cfg.persons,
        seed: cfg.seed,
        ..Default::default()
    });
    let g = CompanyGraph::new(out.graph);

    let programs: [(&str, &str, &str, Option<f64>); 2] = [
        ("control", CONTROL_PROGRAM, "control", None),
        (
            "close_link",
            CLOSELINK_PROGRAM,
            "close_link",
            Some(CLOSELINK_THRESHOLD),
        ),
    ];

    let mut rows = Vec::new();
    for (name, src, pred, threshold) in programs {
        let program = Program::parse(src).expect("bundled program parses");
        let engine = Engine::new(&program).expect("bundled program compiles");
        let base = fresh_db(&g, threshold);

        for source in sources(&g, cfg.goals_per_program) {
            let goal = format!("{pred}(\"{source}\", X)?");
            let q = Query::parse(&goal).expect("valid goal");

            // Warm both paths once (page faults and lazy allocation land
            // on whoever runs first), then keep the best of `repeats`.
            let mut warm = base.clone();
            engine.run(&mut warm).expect("fixpoint");
            let _ = engine.query(&base, &goal).expect("goal-directed run");

            let (mut query_secs, mut full_secs) = (f64::INFINITY, f64::INFINITY);
            let mut last = None;
            for _ in 0..cfg.repeats.max(1) {
                let start = Instant::now();
                let answer = engine.query(&base, &goal).expect("goal-directed run");
                query_secs = query_secs.min(start.elapsed().as_secs_f64());

                // The full path answers the same goal without the demand
                // rewrite: scratch copy (answering must not mutate the
                // caller's database — `Engine::query` pays for its copy
                // inside the timer too), full fixpoint, filter.
                let start = Instant::now();
                let mut full = base.clone();
                let stats = engine.run(&mut full).expect("fixpoint");
                let reference = goal_matches(&full, &q);
                full_secs = full_secs.min(start.elapsed().as_secs_f64());
                last = Some((answer, stats, reference));
            }
            let (answer, full_stats, reference) = last.expect("at least one repeat");

            let speedup = full_secs / query_secs.max(1e-12);
            rows.push(MagicBench {
                name,
                goal,
                query_secs,
                full_secs,
                speedup,
                win_factor: speedup.max(0.0) as u64,
                answers: answer.rows.len(),
                query_derived: answer.stats.derived,
                full_derived: full_stats.derived,
                demanded: answer.demanded,
                outputs_match: answer.rows == reference,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Renders the benchmark document.
pub fn render_magic_json(cfg: &MagicConfig, rows: &[MagicBench]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": \"{}\",\n", esc(MAGIC_SCHEMA)));
    s.push_str(&format!("  \"persons\": {},\n", cfg.persons));
    s.push_str(&format!("  \"seed\": {},\n", cfg.seed));
    s.push_str(&format!("  \"repeats\": {},\n", cfg.repeats));
    s.push_str("  \"lookups\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!("      \"name\": \"{}\",\n", esc(r.name)));
        s.push_str(&format!("      \"goal\": \"{}\",\n", esc(&r.goal)));
        s.push_str(&format!("      \"query_secs\": {},\n", num(r.query_secs)));
        s.push_str(&format!("      \"full_secs\": {},\n", num(r.full_secs)));
        s.push_str(&format!("      \"speedup\": {},\n", num(r.speedup)));
        s.push_str(&format!("      \"win_factor\": {},\n", r.win_factor));
        s.push_str(&format!("      \"answers\": {},\n", r.answers));
        s.push_str(&format!("      \"query_derived\": {},\n", r.query_derived));
        s.push_str(&format!("      \"full_derived\": {},\n", r.full_derived));
        s.push_str(&format!("      \"demanded\": {},\n", r.demanded));
        s.push_str(&format!("      \"outputs_match\": {}\n", r.outputs_match));
        s.push_str(if i + 1 == rows.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}

// ---------------------------------------------------------------------------
// Validator
// ---------------------------------------------------------------------------

/// Validates a `BENCH_magic.json` document against the
/// `vadalink-bench-magic/1` schema: field presence, types, and the
/// substantive invariants — every lookup took the demanded path, returned
/// rows byte-identical to full evaluation, derived no more facts than the
/// full run, and won by at least an integer factor (`win_factor >= 2`,
/// consistent with the measured ratio).
pub fn validate_magic_json(text: &str) -> Result<(), String> {
    let doc = check_doc_header(text, MAGIC_SCHEMA, &["persons", "seed", "repeats"])?;
    let lookups = non_empty_array(&doc, "lookups")?;
    for (i, p) in lookups.iter().enumerate() {
        let ctx = |msg: String| format!("lookups[{i}]: {msg}");
        for field in ["name", "goal"] {
            match p.get(field) {
                Some(JVal::Str(s)) if !s.is_empty() => {}
                _ => return Err(ctx(format!("missing non-empty string field '{field}'"))),
            }
        }
        for field in ["query_secs", "full_secs", "speedup"] {
            let v = want_num(p, field).map_err(&ctx)?;
            if v <= 0.0 || v.is_nan() {
                return Err(ctx(format!("field '{field}' must be > 0")));
            }
        }
        for field in ["win_factor", "answers", "query_derived", "full_derived"] {
            let v = want_num(p, field).map_err(&ctx)?;
            if v < 0.0 || v.fract() != 0.0 {
                return Err(ctx(format!(
                    "field '{field}' must be a non-negative integer"
                )));
            }
        }
        let speedup = want_num(p, "speedup").map_err(&ctx)?;
        let win = want_num(p, "win_factor").map_err(&ctx)?;
        if win < 2.0 {
            return Err(ctx(format!(
                "win_factor {win} < 2 — goal-directed evaluation must win \
                 by an integer factor"
            )));
        }
        if win > speedup {
            return Err(ctx(format!(
                "win_factor {win} exceeds the measured speedup {speedup}"
            )));
        }
        let qd = want_num(p, "query_derived").map_err(&ctx)?;
        let fd = want_num(p, "full_derived").map_err(&ctx)?;
        if qd > fd {
            return Err(ctx(format!(
                "demanded run derived more facts ({qd}) than the full run ({fd})"
            )));
        }
        match p.get("demanded") {
            Some(JVal::Bool(true)) => {}
            Some(JVal::Bool(false)) => {
                return Err(ctx("demanded is false — the lookup fell back to \
                                full evaluation"
                    .into()))
            }
            _ => return Err(ctx("missing boolean field 'demanded'".into())),
        }
        match p.get("outputs_match") {
            Some(JVal::Bool(true)) => {}
            Some(JVal::Bool(false)) => {
                return Err(ctx(
                    "outputs_match is false — goal-directed answers diverged".into(),
                ))
            }
            _ => return Err(ctx("missing boolean field 'outputs_match'".into())),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_artifact_validates() {
        // Artifacts are not regenerated when the header loses a key, so
        // the validator must keep ignoring keys it no longer requires.
        validate_magic_json(include_str!("../../../BENCH_magic.json"))
            .expect("committed BENCH_magic.json validates");
    }

    fn sample_rows() -> Vec<MagicBench> {
        vec![MagicBench {
            name: "control",
            goal: "control(\"n0\", X)?".into(),
            query_secs: 0.01,
            full_secs: 0.12,
            speedup: 12.0,
            win_factor: 12,
            answers: 3,
            query_derived: 40,
            full_derived: 4_000,
            demanded: true,
            outputs_match: true,
        }]
    }

    fn sample_cfg() -> MagicConfig {
        MagicConfig {
            persons: 100,
            seed: 1,
            repeats: 1,
            goals_per_program: 1,
        }
    }

    #[test]
    fn writer_output_validates() {
        let text = render_magic_json(&sample_cfg(), &sample_rows());
        validate_magic_json(&text).expect("writer output must satisfy the schema");
    }

    #[test]
    fn validator_rejects_broken_documents() {
        let good = render_magic_json(&sample_cfg(), &sample_rows());
        assert!(validate_magic_json("not json").is_err());
        let bad = good.replace(MAGIC_SCHEMA, "something-else/9");
        assert!(validate_magic_json(&bad).is_err());
        // A sub-integer win is a failure, not a data point.
        let bad = good.replace("\"win_factor\": 12", "\"win_factor\": 1");
        assert!(validate_magic_json(&bad).is_err());
        // A claimed factor above the measured ratio is inconsistent.
        let bad = good.replace("\"win_factor\": 12", "\"win_factor\": 13");
        assert!(validate_magic_json(&bad).is_err());
        // Fallbacks and divergence fail loudly.
        let bad = good.replace("\"demanded\": true", "\"demanded\": false");
        assert!(validate_magic_json(&bad).is_err());
        let bad = good.replace("\"outputs_match\": true", "\"outputs_match\": false");
        assert!(validate_magic_json(&bad).is_err());
        // The demanded run may never derive more than the full run.
        let bad = good.replace("\"query_derived\": 40", "\"query_derived\": 5000");
        assert!(validate_magic_json(&bad).is_err());
    }

    #[test]
    fn bench_runs_end_to_end_on_a_tiny_graph() {
        // Small graph: only the identity invariants are asserted here
        // (the integer-factor win is a property of the CI-scale runs;
        // at 80 persons both paths finish in microseconds).
        let cfg = MagicConfig {
            persons: 80,
            seed: 0xEDB7,
            repeats: 1,
            goals_per_program: 2,
        };
        let rows = run_magic_bench(&cfg);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.demanded, "{}: fell back to full evaluation", r.goal);
            assert!(r.outputs_match, "{}: answers diverged", r.goal);
            assert!(
                r.query_derived <= r.full_derived,
                "{}: demanded run derived more",
                r.goal
            );
        }
    }
}
