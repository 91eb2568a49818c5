//! Shared plumbing of the `repro --bench-json` artifacts: paired engine
//! timing, database snapshots, JSON number/string rendering and the
//! validator scaffolding every `BENCH_*` schema starts from.
//!
//! No serde in the build environment, so both sides are hand-rolled: the
//! writers build their documents with `format!`, the validators parse with
//! the serving layer's JSON reader (`serve::json`).

use std::time::Instant;

use datalog::{Database, Engine};
use vada_link::mapping::load_facts;
use vada_link::model::CompanyGraph;

pub(crate) fn fresh_db(g: &CompanyGraph, threshold: Option<f64>) -> Database {
    let mut db = Database::new();
    load_facts(g, &mut db);
    if let Some(t) = threshold {
        db.assert_fact("th", &[datalog::Const::float(t)])
            .expect("arity");
    }
    db
}

/// Full-database dump: every predicate's sorted tuples, sorted by name.
/// Used to assert that two runs are indistinguishable.
pub(crate) fn db_snapshot(db: &Database) -> Vec<(String, Vec<String>)> {
    let mut snap: Vec<(String, Vec<String>)> = (0..db.pred_count() as u32)
        .map(|p| {
            let name = db.pred_name(p).to_owned();
            let rows = db.dump(&name);
            (name, rows)
        })
        .collect();
    snap.sort();
    snap
}

/// One run of `engine` on a fresh database, returning the wall time of
/// the fixpoint alone (database construction is outside the timer).
fn one_run(
    engine: &Engine,
    g: &CompanyGraph,
    threshold: Option<f64>,
) -> (f64, datalog::RunStats, Database) {
    let mut db = fresh_db(g, threshold);
    let start = Instant::now();
    let stats = engine.run(&mut db).expect("fixpoint");
    (start.elapsed().as_secs_f64(), stats, db)
}

/// Times two engine modes back to back: one untimed warm-up run per mode
/// (heap growth and lazy page faults land on whichever mode runs first —
/// warming both keeps the comparison fair), then `repeats` interleaved
/// timed runs per mode, keeping the best of each. Returns
/// `(best_a, best_b, stats, db_a, db_b)`; stats and databases come from
/// the last repeat (identical across repeats — the engine is
/// deterministic).
pub(crate) fn timed_pair(
    a: &Engine,
    b: &Engine,
    g: &CompanyGraph,
    threshold: Option<f64>,
    repeats: usize,
) -> (f64, f64, datalog::RunStats, Database, Database) {
    let _ = one_run(a, g, threshold);
    let _ = one_run(b, g, threshold);
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    let mut last: Option<(datalog::RunStats, Database, Database)> = None;
    for _ in 0..repeats.max(1) {
        let (secs_a, stats, db_a) = one_run(a, g, threshold);
        let (secs_b, _, db_b) = one_run(b, g, threshold);
        best_a = best_a.min(secs_a);
        best_b = best_b.min(secs_b);
        last = Some((stats, db_a, db_b));
    }
    let (stats, db_a, db_b) = last.expect("at least one repeat");
    (best_a, best_b, stats, db_a, db_b)
}

// ---------------------------------------------------------------------------
// Writer helpers
// ---------------------------------------------------------------------------

/// JSON string escaping — shared with the serving layer's wire protocol.
pub use serve::json::esc;

/// Finite-float JSON literal (`NaN`/`inf` have no JSON spelling; clamp to
/// zero rather than emit an invalid document).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0.0".to_owned()
    }
}

// ---------------------------------------------------------------------------
// Validator scaffolding (over the shared JSON reader)
// ---------------------------------------------------------------------------

/// Parsed JSON value and document parser. This module used to carry its
/// own tiny recursive-descent parser; the serving layer grew a shared
/// one (`serve::json`, hand-rolled because the build has no serde), so
/// the benchmark validators now parse with exactly the code the wire
/// protocol uses.
pub(crate) use serve::json::{parse_json, Json as JVal};

pub(crate) fn want_num(v: &JVal, field: &str) -> Result<f64, String> {
    match v.get(field) {
        Some(JVal::Num(n)) => Ok(*n),
        Some(_) => Err(format!("field '{field}' must be a number")),
        None => Err(format!("missing field '{field}'")),
    }
}

/// Shared validator scaffolding: parses a benchmark document, checks the
/// `schema` tag against `schema`, and requires each of `count_fields` to
/// be a numeric field `>= 1`. Every `BENCH_*` validator starts here —
/// the per-schema code only checks what is genuinely schema-specific.
pub(crate) fn check_doc_header(
    text: &str,
    schema: &str,
    count_fields: &[&str],
) -> Result<JVal, String> {
    let doc = parse_json(text)?;
    match doc.get("schema") {
        Some(JVal::Str(s)) if s == schema => {}
        Some(JVal::Str(s)) => return Err(format!("unknown schema '{s}'")),
        _ => return Err("missing string field 'schema'".into()),
    }
    for field in count_fields {
        let v = want_num(&doc, field)?;
        if v < 1.0 {
            return Err(format!("field '{field}' must be >= 1"));
        }
    }
    Ok(doc)
}

/// Shared validator scaffolding: the named field must be a non-empty
/// array (every `BENCH_*` document carries at least one result row).
pub(crate) fn non_empty_array<'a>(doc: &'a JVal, field: &str) -> Result<&'a Vec<JVal>, String> {
    match doc.get(field) {
        Some(JVal::Arr(items)) if !items.is_empty() => Ok(items),
        Some(JVal::Arr(_)) => Err(format!("'{field}' must not be empty")),
        Some(_) => Err(format!("field '{field}' must be an array")),
        None => Err(format!("missing field '{field}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let v = parse_json(r#"{"a": [1, -2.5e1, "x\n\"y\""], "b": {"c": null}}"#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&JVal::Arr(vec![
                JVal::Num(1.0),
                JVal::Num(-25.0),
                JVal::Str("x\n\"y\"".into()),
            ]))
        );
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&JVal::Null));
        assert!(parse_json("{\"a\": 1,}").is_err());
        assert!(parse_json("[1, 2] trailing").is_err());
    }
}
