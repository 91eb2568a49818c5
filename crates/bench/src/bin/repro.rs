//! Reproduction driver: regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--exp all|t1|fig4a|fig4b|fig4c|fig4d|fig4e|threads|ablations|incr|compile|store]
//!       [--scale small|full] [--threads N] [--bench-json [PATH]]
//! ```
//!
//! Any other `--exp` or `--scale` value is a usage error (exit 2).
//!
//! `small` (default) finishes in a few minutes; `full` pushes the sweeps
//! to the paper's ranges (100k-person graphs, 1–500 clusters).
//!
//! `--bench-json` skips the figure sweeps and instead writes the
//! schema-validated JSON benchmark artifact of the experiment `--exp`
//! names: with `--exp incr` it benchmarks
//! incremental update propagation vs full recomputation across batch
//! sizes (`BENCH_incr.json`, schema `vadalink-bench-incr/1`); with
//! `--exp compile` it benchmarks the production executors vs the
//! reference oracle plus the linkage distance kernels vs their scalar
//! references (`BENCH_compile.json`, schema `vadalink-bench-compile/1`); with
//! `--exp store` it benchmarks the durable store — recovery time vs
//! snapshot cadence after a simulated crash, and one large-register scale
//! probe (1M persons at `--full`) — writing `BENCH_store.json` (schema
//! `vadalink-bench-store/2`). All
//! documents are validated in-process before they are written, so a
//! malformed artifact fails loudly — CI smokes every path in release
//! mode.
//!
//! `--exp incr` without `--bench-json` prints the same sweep as a table:
//! per batch size, incremental update latency, full-recompute time, the
//! speedup, and the number of changed facts.

#![forbid(unsafe_code)]

use bench::compile_bench::{
    render_compile_json, run_compile_bench, run_kernel_bench, validate_compile_json, CompileConfig,
};
use bench::experiments::*;
use bench::incr_bench::{render_incr_json, run_incr_bench, validate_incr_json, IncrConfig};
use bench::store_bench::{
    render_store_json, run_store_bench, validate_store_json, StoreBenchConfig,
};

/// Every `--exp` value `repro` runs.
const EXPS: [&str; 12] = [
    "all",
    "t1",
    "fig4a",
    "fig4b",
    "fig4c",
    "fig4d",
    "fig4e",
    "threads",
    "ablations",
    "incr",
    "compile",
    "store",
];

/// Prints a usage error and exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

struct Args {
    exp: String,
    full: bool,
    /// `Some(None)` = `--bench-json` with the default path.
    bench_json: Option<Option<String>>,
}

fn parse_args() -> Args {
    let mut exp = "all".to_owned();
    let mut full = false;
    let mut bench_json = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--bench-json" => {
                // Optional path operand; the default depends on --exp.
                let path = match argv.get(i + 1) {
                    Some(p) if !p.starts_with("--") => {
                        i += 1;
                        Some(p.clone())
                    }
                    _ => None,
                };
                bench_json = Some(path);
            }
            "--exp" => {
                i += 1;
                exp = match argv.get(i) {
                    Some(e) if EXPS.contains(&e.as_str()) => e.clone(),
                    other => usage_error(&format!(
                        "bad --exp {}: expected one of {}",
                        other.map_or("(missing)", String::as_str),
                        EXPS.join("|")
                    )),
                };
            }
            "--scale" => {
                i += 1;
                full = match argv.get(i).map(String::as_str) {
                    Some("small") => false,
                    Some("full") => true,
                    other => usage_error(&format!(
                        "bad --scale {}: expected small|full",
                        other.unwrap_or("(missing)")
                    )),
                };
            }
            "--threads" => {
                i += 1;
                let n: usize = argv.get(i).and_then(|s| s.parse().ok()).unwrap_or(0);
                if n == 0 {
                    usage_error("--threads expects a positive integer");
                }
                par::set_threads(n);
            }
            other => usage_error(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    Args {
        exp,
        full,
        bench_json,
    }
}

const SEED: u64 = 0xEDB7;

/// Shared workload knobs of the incremental sweep (table and JSON modes).
/// The small scale stays above the acceptance floor (>= 1500 persons,
/// where the close-link join the session avoids re-running is large enough
/// for single-edge updates to clear their 5x speedup bar with margin).
fn incr_config(full: bool) -> IncrConfig {
    IncrConfig {
        persons: if full { 8_000 } else { 4_000 },
        seed: SEED,
        repeats: if full { 5 } else { 3 },
        batches: vec![1, 8, 64, 256],
    }
}

/// Runs the incremental-vs-recompute sweep; optionally writes + validates
/// the `BENCH_incr.json` artifact. Exits non-zero on schema or identity
/// failure.
fn run_incr(json_path: Option<&str>, full: bool) {
    let cfg = incr_config(full);
    println!(
        "Incremental maintenance bench: close_link updates vs full recompute \
         ({} persons, {} repeats, 1 thread)",
        cfg.persons, cfg.repeats
    );
    let rows = run_incr_bench(&cfg);
    println!(
        "{:>7} {:>13} {:>11} {:>9} {:>9}",
        "batch", "update_s", "full_s", "speedup", "changed"
    );
    for r in &rows {
        println!(
            "{:>7} {:>13.6} {:>11.3} {:>8.1}x {:>9}",
            r.batch, r.update_secs, r.full_secs, r.speedup, r.changed_facts
        );
        assert!(r.outputs_match, "batch {}: maintenance diverged", r.batch);
    }
    println!("acceptance: single-edge updates >= 5x faster than recomputation (EXPERIMENTS.md).");
    if let Some(path) = json_path {
        let text = render_incr_json(&cfg, &rows);
        if let Err(e) = validate_incr_json(&text) {
            eprintln!("generated benchmark JSON failed schema validation: {e}");
            std::process::exit(1);
        }
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "\nwrote {path} (schema {} — validated)",
            bench::incr_bench::INCR_SCHEMA
        );
    }
}

/// Runs the production-vs-oracle sweep (programs + linkage kernels);
/// optionally writes + validates the `BENCH_compile.json` artifact. Exits
/// non-zero on schema or identity failure.
fn run_compile(json_path: Option<&str>, full: bool) {
    // Full scale sits in the join-dominated regime where planning and the
    // executors dominate shared costs (generation, canonical sort,
    // insertion) — the oracle's close-link run takes about a minute there,
    // so the sweep takes ~7 minutes; the quick scale is a CI smoke.
    let cfg = CompileConfig {
        persons: if full { 15_000 } else { 1_500 },
        seed: SEED,
        repeats: 5,
        kernel_pairs: if full { 200_000 } else { 50_000 },
    };
    println!(
        "Compiled execution bench: bundled programs, production pipeline vs \
         reference oracle ({} persons, {} repeats, 1 thread)",
        cfg.persons, cfg.repeats
    );
    let programs = run_compile_bench(&cfg);
    println!(
        "{:>18} {:>12} {:>14} {:>9} {:>9} {:>8}",
        "program", "compiled_s", "interpreted_s", "speedup", "derived", "rounds"
    );
    for r in &programs {
        println!(
            "{:>18} {:>12.4} {:>14.4} {:>8.2}x {:>9} {:>8}",
            r.name, r.compiled_secs, r.interpreted_secs, r.speedup, r.facts_derived, r.rounds
        );
        assert!(
            r.outputs_match,
            "{}: production diverged from oracle",
            r.name
        );
    }
    println!(
        "\nLinkage kernel bench: blocked/bit-parallel distance kernels vs scalar \
         references ({} name pairs)",
        cfg.kernel_pairs
    );
    let kernels = run_kernel_bench(&cfg);
    println!(
        "{:>14} {:>12} {:>15} {:>9} {:>9}",
        "kernel", "kernel_ns", "reference_ns", "speedup", "pairs"
    );
    for k in &kernels {
        println!(
            "{:>14} {:>12.1} {:>15.1} {:>8.2}x {:>9}",
            k.name, k.kernel_ns_per_pair, k.reference_ns_per_pair, k.speedup, k.pairs
        );
        assert!(
            k.outputs_match,
            "{}: kernel diverged from reference",
            k.name
        );
    }
    println!("acceptance: close_link >= 1.5x compiled, kernels beat references (EXPERIMENTS.md).");
    if let Some(path) = json_path {
        let text = render_compile_json(&cfg, &programs, &kernels);
        if let Err(e) = validate_compile_json(&text) {
            eprintln!("generated benchmark JSON failed schema validation: {e}");
            std::process::exit(1);
        }
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "\nwrote {path} (schema {} — validated)",
            bench::compile_bench::COMPILE_SCHEMA
        );
    }
}

/// Runs the durable-store sweeps (recovery vs snapshot cadence, register
/// scale); optionally writes + validates the `BENCH_store.json` artifact.
/// Exits non-zero on schema or identity failure.
fn run_store(json_path: Option<&str>, full: bool) {
    let cfg = StoreBenchConfig {
        persons: if full { 8_000 } else { 2_000 },
        seed: SEED,
        updates: if full { 200 } else { 50 },
        cadences: if full {
            vec![0, 16, 64]
        } else {
            vec![0, 8, 32]
        },
        register_persons: if full { 1_000_000 } else { 20_000 },
    };
    println!(
        "Durable store bench: crash recovery + register scale \
         ({} persons, {} committed updates)",
        cfg.persons, cfg.updates
    );
    let report = run_store_bench(&cfg);
    println!(
        "{:>9} {:>9} {:>12} {:>11} {:>12}",
        "cadence", "commits", "recovery_s", "snapshots", "tail_frames"
    );
    for r in &report.recovery_rows {
        println!(
            "{:>9} {:>9} {:>12.3} {:>11} {:>12}",
            r.cadence, r.commits, r.recovery_secs, r.snapshots_written, r.wal_tail_frames
        );
        assert!(r.outputs_match, "cadence {}: recovery diverged", r.cadence);
    }
    let reg = &report.register;
    println!(
        "\nregister: {} persons, {} facts — load {:.2}s, eval {:.2}s, \
         recover {:.2}s, ~{} MiB heap",
        reg.persons,
        reg.total_facts,
        reg.load_secs,
        reg.eval_secs,
        reg.recover_secs,
        reg.heap_bytes / (1 << 20)
    );
    println!(
        "acceptance: every cadence recovers canonically identical state \
         (EXPERIMENTS.md)."
    );
    if let Some(path) = json_path {
        let text = render_store_json(&cfg, &report);
        if let Err(e) = validate_store_json(&text) {
            eprintln!("generated benchmark JSON failed schema validation: {e}");
            std::process::exit(1);
        }
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "\nwrote {path} (schema {} — validated)",
            bench::store_bench::STORE_SCHEMA
        );
    }
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.bench_json {
        if args.exp == "incr" {
            let path = path.as_deref().unwrap_or("BENCH_incr.json");
            run_incr(Some(path), args.full);
        } else if args.exp == "compile" {
            let path = path.as_deref().unwrap_or("BENCH_compile.json");
            run_compile(Some(path), args.full);
        } else if args.exp == "store" {
            let path = path.as_deref().unwrap_or("BENCH_store.json");
            run_store(Some(path), args.full);
        } else {
            usage_error("--bench-json needs --exp incr|compile|store");
        }
        return;
    }
    let run = |name: &str| args.exp == "all" || args.exp == name;
    println!(
        "== VADA-LINK reproduction (scale: {}) ==\n",
        if args.full { "full" } else { "small" }
    );

    if run("t1") {
        let nodes = if args.full { 1_000_000 } else { 100_000 };
        let (_, report) = exp_t1(nodes, SEED);
        println!("{report}");
    }

    if run("fig4a") {
        let sizes: &[usize] = if args.full {
            &[1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000]
        } else {
            &[1_000, 2_000, 5_000, 10_000]
        };
        let naive_cap = if args.full { 20_000 } else { 5_000 };
        println!("Figure 4(a): execution time vs nodes (real-world-like company graphs)");
        println!(
            "{:>9} {:>12} {:>14} {:>12} {:>14}",
            "persons", "vadalink_s", "comparisons", "naive_s", "naive_cmps"
        );
        for r in exp_fig4a(sizes, naive_cap, SEED) {
            println!(
                "{:>9} {:>12.3} {:>14} {:>12} {:>14}",
                r.persons,
                r.vadalink_secs,
                r.comparisons,
                r.naive_secs
                    .map(|s| format!("{s:.3}"))
                    .unwrap_or_else(|| "-".into()),
                r.naive_comparisons
                    .map(|c| c.to_string())
                    .unwrap_or_else(|| "-".into()),
            );
        }
        println!("paper: linear-ish growth for VADA-LINK, quadratic for the naive baseline.\n");
    }

    if run("fig4b") {
        let sizes: &[usize] = if args.full {
            &[1_000, 2_000, 4_000, 6_000, 8_000, 10_000]
        } else {
            &[1_000, 2_000, 4_000]
        };
        println!("Figure 4(b): execution time vs nodes (dense synthetic BA graphs, m=8)");
        println!("{:>9} {:>12} {:>14}", "nodes", "secs", "comparisons");
        for r in exp_fig4b(sizes, SEED) {
            println!("{:>9} {:>12.3} {:>14}", r.nodes, r.secs, r.comparisons);
        }
        println!("paper: same linear trend, elapsed times an order of magnitude above 4(a).\n");
    }

    if run("fig4c") {
        let persons = if args.full { 20_000 } else { 3_000 };
        let ks: &[usize] = &[1, 2, 5, 10, 20, 50, 100, 200, 300, 400, 500];
        println!("Figure 4(c): execution time vs cluster count ({persons} persons)");
        println!("{:>9} {:>12} {:>14}", "clusters", "secs", "comparisons");
        for r in exp_fig4c(persons, ks, SEED) {
            println!("{:>9} {:>12.3} {:>14}", r.clusters, r.secs, r.comparisons);
        }
        println!("paper: elapsed time falls sharply up to ~10 clusters, then flattens.\n");
    }

    if run("fig4d") {
        let sizes: &[usize] = if args.full {
            &[100, 200, 400, 600, 800, 1_000]
        } else {
            &[100, 300, 600, 1_000]
        };
        println!("Figure 4(d): execution time vs density (BA presets, 100–1000 nodes)");
        println!("{:>11} {:>8} {:>12}", "density", "nodes", "secs");
        for r in exp_fig4d(sizes, SEED) {
            println!("{:>11} {:>8} {:>12.3}", r.density, r.nodes, r.secs);
        }
        println!("paper: sparse/normal/dense track each other; superdense grows superlinearly.\n");
    }

    if run("fig4e") {
        let persons = if args.full { 4_000 } else { 1_500 };
        let repeats = if args.full { 10 } else { 3 };
        let ks: &[usize] = &[1, 10, 20, 50, 100, 200, 300, 400, 450, 500];
        println!("Figure 4(e): recall vs cluster count ({persons} persons, {repeats} repeats, 20% removed)");
        println!("{:>9} {:>10} {:>14}", "clusters", "recall", "comparisons");
        for r in exp_fig4e(persons, ks, repeats, SEED) {
            println!(
                "{:>9} {:>10.4} {:>14.0}",
                r.clusters, r.recall, r.comparisons
            );
        }
        println!("paper: 100% at 1 cluster, 99.4% at 20, 98.6% at 50, steadily <50% past 400.\n");
    }

    if run("threads") {
        let nodes = if args.full { 6_000 } else { 2_000 };
        let counts: &[usize] = &[1, 2, 4];
        println!("Thread scaling: parallel kernels on a superdense BA graph ({nodes} nodes)");
        println!(
            "{:>10} {:>9} {:>12} {:>9}",
            "kernel", "threads", "secs", "speedup"
        );
        for r in exp_thread_scaling(nodes, counts, SEED) {
            println!(
                "{:>10} {:>9} {:>12.3} {:>8.2}x",
                r.kernel, r.threads, r.secs, r.speedup
            );
        }
        println!();
    }

    if run("ablations") {
        let persons = if args.full { 3_000 } else { 1_000 };
        println!("{}", exp_ablations(persons, SEED));
    }

    if run("incr") {
        run_incr(None, args.full);
        println!();
    }

    if args.exp == "compile" {
        run_compile(None, args.full);
        println!();
    }

    if args.exp == "store" {
        run_store(None, args.full);
        println!();
    }
}
