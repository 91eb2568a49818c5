//! `reason_ownership`: the reasoning half (Alg. 2/4/5/6) through the
//! `KnowledgeGraph` facade — company control on the large register,
//! close links on the 15 000-person extract.

use std::collections::{HashMap, HashSet};
use std::process::Command;

use datalog::{analyze, Const, Database, Engine, Program};
use pgraph::NodeId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use vada_link::control::{all_control, controls};
use vada_link::kg::{CLOSE_LINK, CONTROL_LINK};
use vada_link::mapping::{load_facts, materialize_links};
use vada_link::model::CompanyGraph;
use vada_link::programs::{CLOSELINK_PROGRAM, CONTROL_PROGRAM};
use vada_link::KnowledgeGraph;

use crate::inputs::{pair_digest, register};
use crate::report::{timed, Report};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{interleaved_passes, median_setup, planned_passes, Ctx, PassClass, Scale};

/// Persons of the control register at full scale.
const CONTROL_PERSONS: usize = 150_000;
/// Persons of the close-link extract at full scale.
const CLOSELINK_PERSONS: usize = 15_000;
/// The ECB's close-link threshold.
const THRESHOLD: f64 = 0.2;
/// Share of the time budget the control passes get.
const CONTROL_SHARE: f64 = 0.55;
/// Companies whose close links the native oracle re-derives.
const ORACLE_SOURCES: usize = 40;

struct Inputs {
    register: CompanyGraph,
    extract: CompanyGraph,
    generate_s: f64,
}

fn setup(ctx: &Ctx) -> Inputs {
    let (generate_s, reg) =
        timed(|| register(ctx.scale.of(CONTROL_PERSONS), ctx.structure, ctx.seed));
    Inputs {
        register: reg.g,
        extract: register(ctx.scale.of(CLOSELINK_PERSONS), ctx.structure, ctx.seed).g,
        generate_s,
    }
}

/// One `derive_control` pass: seconds and the materialized pairs.
fn control_pass(g: &CompanyGraph) -> (f64, Vec<(NodeId, NodeId)>) {
    let mut kg = KnowledgeGraph::new(g.clone());
    let (secs, _) = timed(|| kg.derive_control());
    (secs, kg.control_pairs())
}

/// One `derive_close_links` pass: seconds and the materialized pairs.
fn closelink_pass(g: &CompanyGraph) -> (f64, Vec<(NodeId, NodeId)>) {
    let mut kg = KnowledgeGraph::new(g.clone());
    let (secs, _) = timed(|| kg.derive_close_links(THRESHOLD));
    (secs, kg.close_link_pairs())
}

/// Accumulated ownership of every owner in `y`, as Algorithm 6 defines
/// it: the sum over ownership walks that end at `y`, never pass through
/// `y` before, and take no self-loop. Computed natively by pushing mass
/// backwards from `y`; independent of the Datalog engine.
fn accumulated_into(g: &CompanyGraph, y: NodeId) -> HashMap<NodeId, f64> {
    let mut acc: HashMap<NodeId, f64> = HashMap::new();
    let mut frontier: HashMap<NodeId, f64> = HashMap::from([(y, 1.0)]);
    for _ in 0..10_000 {
        let mut next: HashMap<NodeId, f64> = HashMap::new();
        for (&v, &mass) in &frontier {
            for (owner, w) in g.shareholders(v) {
                if owner != v && owner != y {
                    *next.entry(owner).or_insert(0.0) += mass * w;
                }
            }
        }
        let total: f64 = next.values().sum();
        for (&z, &m) in &next {
            *acc.entry(z).or_insert(0.0) += m;
        }
        if total < 1e-12 {
            break;
        }
        frontier = next;
    }
    acc
}

/// Definition 2.6 decided natively for one company pair. `None` when an
/// accumulated share sits within rounding of the threshold.
fn closely_linked(
    x: NodeId,
    y: NodeId,
    into_x: &HashMap<NodeId, f64>,
    into_y: &HashMap<NodeId, f64>,
) -> Option<bool> {
    const EPS: f64 = 1e-7;
    let mut unsure = false;
    let mut over = |v: f64| {
        unsure |= (v - THRESHOLD).abs() < EPS;
        v >= THRESHOLD
    };
    let mut linked =
        over(into_y.get(&x).copied().unwrap_or(0.0)) | over(into_x.get(&y).copied().unwrap_or(0.0));
    for (z, &v) in into_x {
        if *z != x && *z != y {
            if let Some(&w) = into_y.get(z) {
                linked |= over(v) & over(w);
            }
        }
    }
    (!unsure).then_some(linked)
}

/// Checks the derived close links of a seeded sample of companies
/// against the native oracle: every company within two ownership hops
/// of a sampled one must be linked to it exactly when Definition 2.6
/// says so.
fn check_close_links(g: &CompanyGraph, derived: &[(NodeId, NodeId)], seed: u64, rep: &mut Report) {
    let derived: HashSet<(NodeId, NodeId)> = derived.iter().copied().collect();
    let mut companies: Vec<NodeId> = g.companies().collect();
    companies.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x0AC1E));
    let mut into: HashMap<NodeId, HashMap<NodeId, f64>> = HashMap::new();
    let (mut pairs, mut linked) = (0, 0);
    for &x in companies.iter().take(ORACLE_SOURCES) {
        // Neighbourhood: x's owners' holdings, x's holdings and owners.
        let mut near: Vec<NodeId> = Vec::new();
        for (owner, _) in g.shareholders(x) {
            near.push(owner);
            near.extend(g.holdings(owner).map(|(c, _)| c).take(50));
        }
        near.extend(g.holdings(x).map(|(c, _)| c));
        near.sort_unstable();
        near.dedup();
        near.retain(|&y| y != x && g.is_company(y));
        near.truncate(60);
        for y in near {
            for n in [x, y] {
                into.entry(n).or_insert_with(|| accumulated_into(g, n));
            }
            let Some(want) = closely_linked(x, y, &into[&x], &into[&y]) else {
                continue;
            };
            let got = derived.contains(&(x, y)) || derived.contains(&(y, x));
            pairs += 1;
            linked += usize::from(want);
            rep.check(got == want, || {
                format!(
                    "close_link({}, {}): derived {got}, native oracle {want}",
                    x.0, y.0
                )
            });
        }
    }
    eprintln!("  close-link oracle: {pairs} company pairs decided natively, {linked} linked");
}

/// Datalog `control` must equal the native worklist algorithm as a
/// set. Both sum shares in floating point, in different orders, and
/// compare the sum with one half, so a controller may differ where its
/// joint share of some company is one half to within rounding; such
/// ties are reported and excused, anything else is a failed operation.
fn check_control(g: &CompanyGraph, derived: &[(NodeId, NodeId)], rep: &mut Report) {
    let native: HashSet<(NodeId, NodeId)> = all_control(g).into_iter().collect();
    let derived: HashSet<(NodeId, NodeId)> = derived.iter().copied().collect();
    let mut differing: Vec<NodeId> = native
        .symmetric_difference(&derived)
        .map(|&(x, _)| x)
        .collect();
    differing.sort_unstable();
    differing.dedup();
    rep.ops(native.len() as u64, 0);
    for x in differing {
        let mut group = controls(g, x);
        group.push(x);
        let mut joint: HashMap<NodeId, f64> = HashMap::new();
        for &z in &group {
            for (y, w) in g.holdings(z) {
                if y != z {
                    *joint.entry(y).or_insert(0.0) += w;
                }
            }
        }
        let tie = joint.values().any(|total| (total - 0.5).abs() < 1e-9);
        if tie {
            eprintln!("  control: n{} holds one half of a company to within rounding; its pairs are excused", x.0);
        }
        rep.check(tie, || {
            format!(
                "control: the pairs of controller n{} differ from the native algorithm",
                x.0
            )
        });
    }
}

/// Untraced run: returns the set-up time.
pub fn measure(ctx: &Ctx, rep: &mut Report) -> f64 {
    let (boot_s, inp) = median_setup(|| setup(ctx));
    let (warm_control, control) = control_pass(&inp.register);
    let (warm_close, close) = closelink_pass(&inp.extract);
    let setup_s = boot_s + warm_control + warm_close;

    let budget = ctx.budget_s * CONTROL_SHARE;
    // Class a: control; class b: close links. A few passes support no
    // percentile above the median, so the tail slot repeats it.
    let [control_s, closelink_s] = interleaved_passes(
        rep,
        [
            PassClass {
                what: "control",
                n: planned_passes(budget, warm_control),
                want: pair_digest(&control),
                one: &mut || {
                    let (secs, pairs) = control_pass(&inp.register);
                    (secs, pair_digest(&pairs))
                },
            },
            PassClass {
                what: "close-link",
                n: planned_passes(ctx.budget_s - budget, warm_close),
                want: pair_digest(&close),
                one: &mut || {
                    let (secs, pairs) = closelink_pass(&inp.extract);
                    (secs, pair_digest(&pairs))
                },
            },
        ],
    );
    rep.name("control_s", control_s, "s");
    rep.put("a_p50_ms", control_s * 1e3);
    rep.put("a_tail_ms", control_s * 1e3);
    rep.put(
        "rate_per_s",
        ctx.scale.of(CONTROL_PERSONS) as f64 / control_s,
    );
    rep.name("closelink_s", closelink_s, "s");
    rep.put("b_p50_ms", closelink_s * 1e3);
    rep.put("b_tail_ms", closelink_s * 1e3);

    check_control(&inp.register, &control, rep);
    check_close_links(&inp.extract, &close, ctx.seed, rep);
    setup_s
}

struct EvalTrace {
    pairs: Vec<(NodeId, NodeId)>,
    facts_loaded: usize,
    rounds: usize,
    derived: usize,
}

/// One derivation re-composed from the public calls the facade makes,
/// as one pass. The graph is copied before the pass opens and the
/// database dropped after it closes: the facade's timer covers neither.
fn recomposed(
    g: &CompanyGraph,
    source: &str,
    pred: &str,
    class: &str,
    threshold: Option<f64>,
    t: &mut Tracer,
) -> EvalTrace {
    let mut out = g.clone();
    let root = t.enter("reason_ownership.pass");
    let program = t.span("datalog.parse", || {
        Program::parse(source).expect("bundled program")
    });
    t.span("datalog.analyze", || analyze(&program));
    let engine = t.span("datalog.engine_new", || {
        Engine::new(&program).expect("bundled program")
    });
    let mut db = Database::new();
    t.span("core.load_facts", || {
        load_facts(g, &mut db);
        if let Some(th) = threshold {
            db.assert_fact("th", &[Const::float(th)]).expect("arity");
        }
    });
    let facts_loaded = db.total_facts();
    let stats = t.span("datalog.run", || engine.run(&mut db).expect("fixpoint"));
    t.span("core.materialize", || {
        materialize_links(&mut out, &db, pred, class)
    });
    t.exit(root);
    EvalTrace {
        pairs: out.links_of(class),
        facts_loaded,
        rounds: stats.rounds,
        derived: stats.derived,
    }
}

/// Per-layer times of the spans recorded since `from`.
fn since(t: &Tracer, name: &str, before: u64) -> f64 {
    (t.total_ns(name) - before) as f64 / 1e9
}

/// Traced run; returns the traced passes' overhead over the untraced
/// medians.
pub fn trace(ctx: &Ctx, rep: &mut Report, t: &mut Tracer) -> f64 {
    let inp = setup(ctx);
    rep.put("gen.generate_s", inp.generate_s);
    let (_, control) = control_pass(&inp.register);
    let (_, close) = closelink_pass(&inp.extract);
    let untraced_control = median(&[control_pass(&inp.register).0, control_pass(&inp.register).0]);
    let untraced_close = median(&[
        closelink_pass(&inp.extract).0,
        closelink_pass(&inp.extract).0,
    ]);

    let c = recomposed(
        &inp.register,
        CONTROL_PROGRAM,
        "control",
        CONTROL_LINK,
        None,
        t,
    );
    let control_wall = t.total_s("reason_ownership.pass");
    rep.check(pair_digest(&c.pairs) == pair_digest(&control), || {
        "re-composed control pipeline differs from derive_control()".into()
    });
    let load = t.total_s("core.load_facts");
    let run = t.total_s("datalog.run");
    rep.put("datalog.parse_us", t.total_s("datalog.parse") * 1e6);
    rep.put("datalog.analyze_us", t.total_s("datalog.analyze") * 1e6);
    rep.put(
        "datalog.engine_new_us",
        t.total_s("datalog.engine_new") * 1e6,
    );
    rep.put("core.load_facts_control_s", load);
    rep.put("core.load_facts_per_s", c.facts_loaded as f64 / load);
    rep.put("datalog.control_run_s", run);
    rep.put("datalog.control_rounds", c.rounds as f64);
    rep.put("datalog.control_derived", c.derived as f64);
    rep.put("datalog.control_facts_per_s", c.derived as f64 / run);
    rep.put("core.materialize_control_s", t.total_s("core.materialize"));

    let before = |name| t.total_ns(name);
    let (load0, run0, mat0) = (
        before("core.load_facts"),
        before("datalog.run"),
        before("core.materialize"),
    );
    t.next_pass();
    let l = recomposed(
        &inp.extract,
        CLOSELINK_PROGRAM,
        "close_link",
        CLOSE_LINK,
        Some(THRESHOLD),
        t,
    );
    let close_wall = t.total_s("reason_ownership.pass") - control_wall;
    rep.check(pair_digest(&l.pairs) == pair_digest(&close), || {
        "re-composed close-link pipeline differs from derive_close_links()".into()
    });
    let run = since(t, "datalog.run", run0);
    rep.put(
        "core.load_facts_closelink_s",
        since(t, "core.load_facts", load0),
    );
    rep.put("datalog.closelink_run_s", run);
    rep.put("datalog.closelink_rounds", l.rounds as f64);
    rep.put("datalog.closelink_derived", l.derived as f64);
    rep.put("datalog.closelink_facts_per_s", l.derived as f64 / run);
    rep.put(
        "core.materialize_closelink_s",
        since(t, "core.materialize", mat0),
    );

    rep.put(
        "par.closelink_t2_ratio",
        closelink_secs_in_child(ctx, 2) / untraced_close,
    );
    (control_wall + close_wall) / (untraced_control + untraced_close) - 1.0
}

/// One warm close-link pass in a child process with `threads` engine
/// threads; the child prints the seconds.
fn closelink_secs_in_child(ctx: &Ctx, threads: usize) -> f64 {
    let exe = std::env::current_exe().expect("own path");
    let out = Command::new(exe)
        .env(crate::THREADS_ENV, threads.to_string())
        .args(["--closelink-pass", "--seed", &ctx.seed.to_string()])
        .args(["--structure", &ctx.structure.to_string()])
        .args(["--scale", ctx.scale.as_str()])
        .output()
        .expect("child runs");
    assert!(out.status.success(), "close-link child failed");
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("child prints seconds")
}

/// Body of the child: warm-up, then one timed pass.
pub fn closelink_pass_secs(structure: u64, seed: u64, scale: Scale) -> f64 {
    let extract = register(scale.of(CLOSELINK_PERSONS), structure, seed).g;
    closelink_pass(&extract);
    closelink_pass(&extract).0
}
