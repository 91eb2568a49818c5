//! The repository's benchmark: four workloads, end-to-end metrics from
//! untraced runs, per-layer metrics from traced runs. See `README.md`.
//!
//! Every layer is measured from outside, by timing calls into public
//! functions with default configurations; engine threads are pinned to
//! one through `VADALINK_THREADS`.

mod augment;
mod catalog;
mod inputs;
mod load;
mod reason;
mod report;
mod serve;
mod sets;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use catalog::{END_TO_END, PER_LAYER};
use report::Report;
use trace::Tracer;

/// Seconds one run measures; `BENCHMARK.json` names the same number.
pub const RUN_SECONDS: u64 = 18;

/// Times a workload sets up; `setup_s` reports the median.
pub const SETUPS: usize = 5;

/// Share of the traced wall time the layer spans may leave uncovered.
const MAX_UNACCOUNTED: f64 = 0.05;

/// The variable `par` resolves worker threads from.
pub const THREADS_ENV: &str = "VADALINK_THREADS";

/// Input sizes: the ones the workloads are named for, or a tenth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scale {
    Full,
    Tenth,
}

impl Scale {
    pub fn of(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Tenth => full / 10,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tenth => "tenth",
        }
    }

    fn parse(s: &str) -> Option<Scale> {
        [Scale::Full, Scale::Tenth]
            .into_iter()
            .find(|x| x.as_str() == s)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    AugmentFamily,
    ReasonOwnership,
    ServeRead,
    ServeUpdate,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::AugmentFamily,
        Workload::ReasonOwnership,
        Workload::ServeRead,
        Workload::ServeUpdate,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AugmentFamily => "augment_family",
            Workload::ReasonOwnership => "reason_ownership",
            Workload::ServeRead => "serve_read",
            Workload::ServeUpdate => "serve_update",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What one workload body needs to know.
pub struct Ctx<'a> {
    /// Seed of the register's structure; see `inputs::register`.
    pub structure: u64,
    pub seed: u64,
    pub scale: Scale,
    /// Seconds the timed region should take.
    pub budget_s: f64,
    /// Directory for data directories and traces.
    pub out_dir: &'a Path,
}

/// Timed passes that fit a budget, given the warm-up pass's time.
pub fn planned_passes(budget_s: f64, one_pass_s: f64) -> usize {
    ((budget_s / one_pass_s) as usize).clamp(3, 20)
}

/// Sets up `SETUPS` times, releasing each result before the next is
/// made (a data directory has one owner); returns the median seconds
/// and the last result.
pub fn median_setup<T>(mut make: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let (s, made) = report::timed(&mut make);
        secs.push(s);
        kept = Some(made);
    }
    eprintln!("  set-ups: {secs:.3?}");
    (stats::median(&secs), kept.expect("SETUPS is at least one"))
}

/// One class of timed passes of a batch workload.
pub struct PassClass<'a> {
    pub what: &'a str,
    /// Timed passes to run.
    pub n: usize,
    /// Output digest of the warm-up, which every pass must repeat.
    pub want: u64,
    /// Runs one pass; returns its seconds and its output digest.
    pub one: &'a mut dyn FnMut() -> (f64, u64),
}

/// Runs the passes of two classes alternately, so that each class
/// samples the whole measured window: the sandbox slows down by a fifth
/// for seconds at a time, and a class measured in one block catches
/// such a phase whole or not at all. Returns each class's median seconds.
pub fn interleaved_passes(rep: &mut Report, mut classes: [PassClass; 2]) -> [f64; 2] {
    let mut secs = [Vec::new(), Vec::new()];
    // The class furthest behind its share of passes goes next.
    while let Some(c) = (0..2)
        .filter(|&c| secs[c].len() < classes[c].n)
        .min_by_key(|&c| secs[c].len() * classes[1 - c].n)
    {
        let class = &mut classes[c];
        let (s, got) = (class.one)();
        rep.check(got == class.want, || {
            format!(
                "{} pass {} differs from the warm-up",
                class.what,
                secs[c].len()
            )
        });
        secs[c].push(s);
    }
    for (class, secs) in classes.iter().zip(&secs) {
        eprintln!("  {} passes: {secs:.3?}", class.what);
    }
    [stats::median(&secs[0]), stats::median(&secs[1])]
}

/// Runs `workload` untraced; returns its set-up time.
fn measure(workload: Workload, ctx: &Ctx, rep: &mut Report) -> f64 {
    match workload {
        Workload::AugmentFamily => augment::measure(ctx, rep),
        Workload::ReasonOwnership => reason::measure(ctx, rep),
        Workload::ServeRead => serve::measure_read(ctx, rep),
        Workload::ServeUpdate => serve::measure_update(ctx, rep),
    }
}

/// Runs `workload` traced; returns the tracing overhead.
fn trace(workload: Workload, ctx: &Ctx, rep: &mut Report, t: &mut Tracer) -> f64 {
    match workload {
        Workload::AugmentFamily => augment::trace(ctx, rep, t),
        Workload::ReasonOwnership => reason::trace(ctx, rep, t),
        Workload::ServeRead => serve::trace_read(ctx, rep, t),
        Workload::ServeUpdate => serve::trace_update(ctx, rep, t),
    }
}

struct Args {
    workload: Option<Workload>,
    structure: u64,
    seed: u64,
    seconds: f64,
    /// `--trace`: a single run of the builder contract. Without it the
    /// report mode runs both kinds for every selected workload.
    traced: Option<bool>,
    sets: usize,
    smoke: bool,
    /// Hidden: a traced child of the report mode traces its own workload
    /// only; the report reads each per-layer metric from its owner.
    own_layers: bool,
    out_dir: PathBuf,
    /// Hidden: one close-link pass for `par.closelink_t2_ratio`.
    closelink_pass: Option<Scale>,
}

const USAGE: &str = "usage: run.sh [--workload W] [--seed N] [--structure N] [--seconds S] \
[--trace 0|1] [--sets K] [--smoke]\n  workloads: augment_family reason_ownership serve_read serve_update";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        structure: inputs::DEFAULT_SEED,
        seed: inputs::DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        traced: None,
        sets: 1,
        smoke: false,
        own_layers: false,
        out_dir: PathBuf::from("benchmark/out"),
        closelink_pass: None,
    };
    let mut closelink = false;
    let mut scale = Scale::Full;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--structure" => {
                args.structure = value()?.parse().map_err(|e| format!("--structure: {e}"))?
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds < 1.0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                })
            }
            "--sets" => {
                args.sets = value()?.parse().map_err(|e| format!("--sets: {e}"))?;
                if args.sets == 0 {
                    return Err("--sets must be at least 1".into());
                }
            }
            "--smoke" => args.smoke = true,
            "--own-layers" => args.own_layers = true,
            "--out" => args.out_dir = PathBuf::from(value()?),
            "--closelink-pass" => closelink = true,
            "--scale" => {
                let v = value()?;
                scale = Scale::parse(&v).ok_or(format!("unknown scale '{v}'"))?;
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    args.closelink_pass = closelink.then_some(scale);
    Ok(args)
}

/// One run of the builder contract; prints the result object as the
/// last line. The contract wants every per-layer metric from every
/// workload's traced run, and each of them is measured by the one
/// workload that owns it, so a traced run traces its own workload first
/// and then the other three, all at full scale.
fn run_one(workload: Workload, traced: bool, args: &Args) -> ExitCode {
    let mut plan = vec![(workload, Scale::Full)];
    if traced && !args.own_layers {
        plan.extend(
            Workload::ALL
                .into_iter()
                .filter(|w| *w != workload)
                .map(|w| (w, Scale::Full)),
        );
    }
    let (rep, wanted) = run_plan(&plan, traced, args, workload.name());
    if args.own_layers {
        let owned: Vec<_> = wanted.iter().filter(|m| rep.has(m.name)).copied().collect();
        return finish(&rep, &owned, None);
    }
    finish(&rep, wanted, None)
}

/// `--smoke`: all four workloads at a tenth of the scale and of the
/// time, untraced one by one and then traced, in this one process.
fn run_smoke(args: &Args) -> ExitCode {
    let mut ok = true;
    for w in Workload::ALL {
        let (rep, wanted) = run_plan(&[(w, Scale::Tenth)], false, args, "smoke");
        ok &= finish(&rep, wanted, Some(w.name())) == ExitCode::SUCCESS;
    }
    let plan: Vec<_> = Workload::ALL
        .into_iter()
        .map(|w| (w, Scale::Tenth))
        .collect();
    let (rep, wanted) = run_plan(&plan, true, args, "smoke");
    ok &= finish(&rep, wanted, Some("smoke")) == ExitCode::SUCCESS;
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_plan(
    plan: &[(Workload, Scale)],
    traced: bool,
    args: &Args,
    label: &str,
) -> (Report, &'static [catalog::Metric]) {
    std::fs::create_dir_all(&args.out_dir).expect("output directory");
    let mut rep = Report::default();
    let mut spans = Vec::new();
    for (i, &(workload, scale)) in plan.iter().enumerate() {
        let ctx = Ctx {
            structure: args.structure,
            seed: args.seed,
            scale,
            // A tenth of the scale takes a tenth of the time.
            budget_s: args.seconds * scale.of(10) as f64 / 10.0,
            out_dir: &args.out_dir,
        };
        eprintln!("{} at {} scale", workload.name(), scale.as_str());
        if traced {
            let mut t = Tracer::new();
            let overhead = trace(workload, &ctx, &mut rep, &mut t);
            let unaccounted = t.unaccounted_frac();
            // The harness's two figures are those of the workload the run
            // is about; the breakdown of each of the others is checked too.
            rep.check(unaccounted <= MAX_UNACCOUNTED, || {
                format!(
                    "{}: layer spans leave {:.1} % of the traced wall time uncovered",
                    workload.name(),
                    unaccounted * 100.0
                )
            });
            if i == 0 {
                rep.put("trace.overhead_frac", overhead);
                rep.put("trace.unaccounted_frac", unaccounted);
                for (layer, ns) in t.layer_self_ns() {
                    eprintln!("  self time {layer}: {:.6} s", ns as f64 / 1e9);
                }
            }
            spans.push(format!(
                "{{\"workload\":\"{}\",\"scale\":\"{}\",\"spans\":{}}}",
                workload.name(),
                scale.as_str(),
                t.to_json()
            ));
        } else {
            let setup_s = measure(workload, &ctx, &mut rep);
            rep.put("setup_s", setup_s);
        }
    }
    if traced {
        let path = args.out_dir.join(format!("trace-{label}.json"));
        std::fs::write(&path, format!("[{}]\n", spans.join(",\n"))).expect("trace file");
        (rep, PER_LAYER)
    } else {
        rep.put("peak_rss_mib", report::peak_rss_mib());
        (rep, END_TO_END)
    }
}

/// Prints the metrics and, for a run of the builder contract, the
/// result object; fails when a check failed or a catalogued metric is
/// missing. `--smoke` prefixes every line with the workload instead.
fn finish(rep: &Report, wanted: &[catalog::Metric], smoke: Option<&str>) -> ExitCode {
    for f in &rep.failures {
        eprintln!("FAILED: {f}");
    }
    let missing = rep.missing(wanted);
    if !missing.is_empty() {
        eprintln!("error: metrics not produced: {}", missing.join(", "));
        return ExitCode::FAILURE;
    }
    let prefix = smoke.map_or(String::new(), |w| format!("{w} "));
    for l in rep.lines(wanted) {
        println!("{prefix}{l}");
    }
    println!(
        "{prefix}fail_frac {} ratio",
        report::number(rep.failed as f64 / rep.attempted.max(1) as f64)
    );
    if smoke.is_none() {
        println!("{}", rep.result_json(wanted));
    }
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // Before any thread exists: the engines resolve their worker count
    // from this variable, and the benchmark fixes it at one.
    if std::env::var_os(THREADS_ENV).is_none() {
        std::env::set_var(THREADS_ENV, "1");
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(scale) = args.closelink_pass {
        println!(
            "{}",
            reason::closelink_pass_secs(args.structure, args.seed, scale)
        );
        return ExitCode::SUCCESS;
    }
    if args.smoke {
        return run_smoke(&args);
    }
    match (args.workload, args.traced) {
        (Some(w), Some(traced)) => run_one(w, traced, &args),
        (only, _) => {
            let child = sets::ChildArgs {
                structure: args.structure,
                seed: args.seed,
                seconds: args.seconds,
                out_dir: &args.out_dir,
            };
            sets::run(only, &child, args.sets)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn pass_classes_alternate_in_proportion() {
        let order = RefCell::new(String::new());
        let mut rep = Report::default();
        let medians = interleaved_passes(
            &mut rep,
            [
                PassClass {
                    what: "a",
                    n: 2,
                    want: 1,
                    one: &mut || {
                        order.borrow_mut().push('a');
                        (3.0, 1)
                    },
                },
                PassClass {
                    what: "b",
                    n: 4,
                    want: 2,
                    one: &mut || {
                        order.borrow_mut().push('b');
                        (1.0, 9)
                    },
                },
            ],
        );
        assert_eq!(order.into_inner(), "abbabb");
        assert_eq!(medians, [3.0, 1.0]);
        // Every pass is checked against its warm-up; b's digest differs.
        assert_eq!((rep.attempted, rep.failed), (6, 4));
    }
}
