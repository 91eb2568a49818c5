//! The report mode of `run.sh`: one child process per workload and
//! tracing mode (so `peak_rss_mib` is per workload), every metric
//! printed as `workload name value unit`, `out/results.json`, and with
//! `--sets K` the repeatability report.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use serve::json::{parse_json, Json};

use crate::catalog::{Better, Metric, END_TO_END, EXACT_COUNTS, PER_LAYER};
use crate::report::number;
use crate::Workload;

/// What the two runs of one workload produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every `name value unit` line the runs printed, in order: the
    /// workload's own figures and the catalogued metrics.
    pub lines: Vec<(String, f64, String)>,
    pub end_to_end: BTreeMap<String, f64>,
    pub per_layer: BTreeMap<String, f64>,
}

impl WorkloadResult {
    /// The workload's own figures: printed lines that are not catalogued.
    fn named(&self) -> BTreeMap<String, f64> {
        self.lines
            .iter()
            .filter(|(n, ..)| !self.end_to_end.contains_key(n) && !self.per_layer.contains_key(n))
            .map(|(n, v, _)| (n.clone(), *v))
            .collect()
    }
}

/// One child's output: the result object and the printed lines.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    lines: Vec<(String, f64, String)>,
}

/// Reads the `name value unit` lines a child printed and the result
/// object on its last line.
fn parse_result(stdout: &str) -> Result<ChildResult, String> {
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let doc = parse_json(last)?;
    let count = |k: &str| doc.num_of(k).map(|n| n as u64).ok_or(format!("no '{k}'"));
    let Some(Json::Obj(fields)) = doc.get("metrics") else {
        return Err("no 'metrics'".into());
    };
    let lines = stdout
        .lines()
        .filter_map(|l| {
            let mut words = l.split(' ');
            let (name, value, unit) = (words.next()?, words.next()?, words.next()?);
            (words.next().is_none() && name != "fail_frac")
                .then(|| Some((name.to_owned(), value.parse().ok()?, unit.to_owned())))?
        })
        .collect();
    Ok(ChildResult {
        correct: matches!(doc.get("correct"), Some(Json::Bool(true))),
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics: fields
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.num_of("value")?)))
            .collect(),
        lines,
    })
}

/// What every child of one report is started with.
pub struct ChildArgs<'a> {
    pub structure: u64,
    pub seed: u64,
    pub seconds: f64,
    pub out_dir: &'a Path,
}

fn run_child(w: Workload, traced: bool, args: &ChildArgs) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
        .args(["--structure", &args.structure.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(if traced {
            ["--trace", "1", "--own-layers"].as_slice()
        } else {
            ["--trace", "0"].as_slice()
        })
        .arg("--out")
        .arg(args.out_dir)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let parsed = parse_result(&String::from_utf8_lossy(&out.stdout))?;
    if !out.status.success() && parsed.correct {
        return Err(format!("child exited with {}", out.status));
    }
    Ok(parsed)
}

fn run_workload(w: Workload, args: &ChildArgs) -> Result<WorkloadResult, String> {
    let untraced = run_child(w, false, args)?;
    let traced = run_child(w, true, args)?;
    Ok(WorkloadResult {
        name: w.name().to_owned(),
        correct: untraced.correct && traced.correct,
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        lines: [untraced.lines, traced.lines].concat(),
        end_to_end: untraced.metrics,
        per_layer: traced.metrics,
    })
}

fn obj(fields: &BTreeMap<String, f64>) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", number(*v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The `results.json` document.
pub fn render_results(args: &ChildArgs, sets: &[Vec<WorkloadResult>]) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sets: Vec<String> = sets
        .iter()
        .map(|workloads| {
            let rows: Vec<String> = workloads
                .iter()
                .map(|w| {
                    format!(
                        "    {{\"name\": \"{}\", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
                         \"fail_frac\": {},\n     \"named\": {},\n     \"end_to_end\": {},\n     \"per_layer\": {}}}",
                        w.name,
                        w.correct,
                        w.attempted,
                        w.failed,
                        number(w.failed as f64 / w.attempted.max(1) as f64),
                        obj(&w.named()),
                        obj(&w.end_to_end),
                        obj(&w.per_layer)
                    )
                })
                .collect();
            format!("  {{\"workloads\": [\n{}\n  ]}}", rows.join(",\n"))
        })
        .collect();
    format!(
        "{{\"schema\": \"vadalink-benchmark/1\", \"structure\": {}, \"seed\": {}, \
         \"seconds\": {}, \"nproc\": {nproc}, \"threads\": 1,\n \"sets\": [\n{}\n ]}}\n",
        args.structure,
        args.seed,
        number(args.seconds),
        sets.join(",\n")
    )
}

/// One line of the repeatability report; `Err` when the later set is
/// worse than the first by more than the metric's bound (the rule a later
/// change is held to), or when a count that must repeat differs.
fn compare(workload: &str, m: &Metric, a: f64, b: f64) -> Result<String, String> {
    let exact = EXACT_COUNTS.contains(&m.name);
    let worse = match m.better {
        _ if a == b => 0.0,
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    };
    let (limit, ok) = match (exact, m.bound) {
        (true, _) => ("exact".to_owned(), a == b),
        (false, Some(bound)) => (format!("bound {bound}"), worse <= bound),
        (false, None) => ("no bound".to_owned(), true),
    };
    let row = format!(
        "{workload} {} ({} is better) {} {} worse by {:.4} {limit}",
        m.name,
        m.better.as_str(),
        number(a),
        number(b),
        worse
    );
    if ok {
        Ok(row)
    } else {
        Err(row)
    }
}

/// Compares the first set with each later one; returns the rows that
/// are out of bounds.
fn repeatability(sets: &[Vec<WorkloadResult>]) -> Vec<String> {
    let mut out_of_bounds = Vec::new();
    println!("# repeatability: workload metric set-1 set-k how-much-worse limit");
    for later in &sets[1..] {
        for (a, b) in sets[0].iter().zip(later) {
            for m in END_TO_END.iter().chain(PER_LAYER) {
                let of = |w: &WorkloadResult| {
                    w.end_to_end
                        .get(m.name)
                        .or(w.per_layer.get(m.name))
                        .copied()
                };
                let (Some(x), Some(y)) = (of(a), of(b)) else {
                    continue;
                };
                if m.bound.is_none() && !EXACT_COUNTS.contains(&m.name) {
                    continue;
                }
                match compare(&a.name, m, x, y) {
                    Ok(row) => println!("{row} ok"),
                    Err(row) => {
                        println!("{row} OUT OF BOUNDS");
                        out_of_bounds.push(row);
                    }
                }
            }
        }
    }
    out_of_bounds
}

/// Runs the selected workloads `sets` times.
pub fn run(only: Option<Workload>, args: &ChildArgs, sets: usize) -> ExitCode {
    let workloads: Vec<Workload> = match only {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    std::fs::create_dir_all(args.out_dir).expect("output directory");
    let mut all: Vec<Vec<WorkloadResult>> = Vec::new();
    let mut ok = true;
    for set in 0..sets {
        let mut results = Vec::new();
        for &w in &workloads {
            eprintln!("== set {} of {sets}: {}", set + 1, w.name());
            match run_workload(w, args) {
                Ok(r) => {
                    for (name, v, unit) in &r.lines {
                        println!("{} {name} {} {unit}", r.name, number(*v));
                    }
                    let fail_frac = r.failed as f64 / r.attempted.max(1) as f64;
                    println!("{} fail_frac {} ratio", r.name, number(fail_frac));
                    ok &= r.correct;
                    results.push(r);
                }
                Err(e) => {
                    eprintln!("error: {}: {e}", w.name());
                    return ExitCode::FAILURE;
                }
            }
        }
        // Each per-layer metric comes from the workload that owns it.
        if only.is_none() {
            for m in PER_LAYER {
                if !results.iter().any(|r| r.per_layer.contains_key(m.name)) {
                    eprintln!("error: no workload produced {}", m.name);
                    ok = false;
                }
            }
        }
        all.push(results);
    }
    let path = args.out_dir.join("results.json");
    std::fs::write(&path, render_results(args, &all)).expect("results file");
    eprintln!("wrote {}", path.display());
    if sets > 1 {
        let bad = repeatability(&all);
        if !bad.is_empty() {
            eprintln!(
                "error: {} metrics did not repeat within their limits",
                bad.len()
            );
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: a check failed; see the FAILED lines above");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorkloadResult {
        WorkloadResult {
            name: "serve_read".into(),
            correct: true,
            attempted: 90_500,
            failed: 0,
            lines: vec![
                ("read_p99_us".into(), 727.5, "us".into()),
                ("read_qps".into(), 5012.75, "1/s".into()),
            ],
            end_to_end: BTreeMap::from([("read_qps".into(), 5012.75), ("setup_s".into(), 1.25)]),
            per_layer: BTreeMap::from([("serve.lookup_us".into(), 371.5)]),
        }
    }

    #[test]
    fn results_json_parses_with_the_repository_parser() {
        let args = ChildArgs {
            structure: 60855,
            seed: 7,
            seconds: 20.0,
            out_dir: Path::new("out"),
        };
        let text = render_results(&args, &[vec![sample()], vec![sample()]]);
        let doc = parse_json(&text).expect("results.json parses");
        assert_eq!(doc.str_of("schema"), Some("vadalink-benchmark/1"));
        assert_eq!(doc.num_of("structure"), Some(60855.0));
        assert_eq!(doc.num_of("seed"), Some(7.0));
        let Some(Json::Arr(sets)) = doc.get("sets") else {
            panic!("sets")
        };
        assert_eq!(sets.len(), 2);
        let Some(Json::Arr(workloads)) = sets[0].get("workloads") else {
            panic!("workloads")
        };
        let w = &workloads[0];
        assert_eq!(w.str_of("name"), Some("serve_read"));
        assert_eq!(w.num_of("fail_frac"), Some(0.0));
        assert_eq!(
            w.get("end_to_end").unwrap().num_of("read_qps"),
            Some(5012.75)
        );
        assert_eq!(w.get("named").unwrap().num_of("read_p99_us"), Some(727.5));
        assert_eq!(
            w.get("named").unwrap().num_of("read_qps"),
            None,
            "catalogued"
        );
        assert_eq!(
            w.get("per_layer").unwrap().num_of("serve.lookup_us"),
            Some(371.5)
        );
    }

    #[test]
    fn child_result_lines_round_trip() {
        let mut rep = crate::report::Report::default();
        rep.put("setup_s", 1.5);
        rep.ops(10, 1);
        let stdout = format!(
            "augment_s 3.25 s\nsetup_s 1.5 s\nfail_frac 0.1 ratio\n{}\n",
            rep.result_json(END_TO_END)
        );
        let r = parse_result(&stdout).unwrap();
        assert!(!r.correct);
        assert_eq!((r.attempted, r.failed), (10, 1));
        assert_eq!(r.metrics.get("setup_s"), Some(&1.5));
        let names: Vec<&str> = r.lines.iter().map(|l| l.0.as_str()).collect();
        assert_eq!(names, ["augment_s", "setup_s"]);
        assert_eq!(r.lines[0], ("augment_s".into(), 3.25, "s".into()));
        assert!(parse_result("").is_err());
    }

    #[test]
    fn repeatability_applies_bounds_and_exact_counts() {
        let bounded = &END_TO_END[0];
        let bound = bounded.bound.unwrap();
        assert!(compare("w", bounded, 1.0, 1.0 + bound * 0.9).is_ok());
        assert!(compare("w", bounded, 1.0, 1.0 + bound * 1.1).is_err());
        assert!(
            compare("w", bounded, 1.0, 0.5).is_ok(),
            "better is not worse"
        );
        let rate = END_TO_END
            .iter()
            .find(|m| m.better == Better::Higher)
            .unwrap();
        assert!(compare("w", rate, 100.0, 60.0).is_err());
        assert!(compare("w", rate, 100.0, 160.0).is_ok());
        let count = PER_LAYER
            .iter()
            .find(|m| m.name == EXACT_COUNTS[0])
            .unwrap();
        assert!(compare("w", count, 290_799.0, 290_799.0).is_ok());
        assert!(compare("w", count, 290_799.0, 290_800.0).is_err());
    }
}
