//! The paper's Vadalog programs (Algorithms 2–9) and their runners.
//!
//! Each program is a constant in the surface syntax of the [`datalog`]
//! crate, plus a convenience runner that loads a [`CompanyGraph`], executes
//! the engine and reads the derived links back. The runners are
//! differentially tested against the native algorithms of
//! [`crate::control`] and [`crate::closelink`]. The paper argues (Section
//! 5) that 20–30 lines of Vadalog replace 1k+ lines of imperative code —
//! these constants are those lines.

use datalog::{Const, DiagCode, Engine, Program};
use pgraph::NodeId;

use crate::family::FamilyDetector;
use crate::mapping::{load_for, read_pairs};
use crate::model::CompanyGraph;

/// Company control (Algorithm 5): `x` controls itself; whenever the
/// companies `z` controlled by `x` jointly own more than half of `y`, `x`
/// controls `y`. The `msum` groups per `(x, y)` head with contributor `z`.
pub const CONTROL_PROGRAM: &str = r#"
@output("control").
control(X, X) :- company(X).
control(X, X) :- person(X).
control(X, Y) :- control(X, Z), own(Z, Y, W), Z != Y, X != Y, msum(W, <Z>) > 0.5.
"#;

/// Accumulated ownership and close links (Algorithm 6). `AccOwn` is the
/// recursive walk-sum with monotonic summation (contributors: the direct
/// edge, or the intermediate `z`); rules (3)–(5) derive the close-link
/// candidates for the threshold in the `th/1` fact.
pub const CLOSELINK_PROGRAM: &str = r#"
@output("close_link").
acc_own(X, Y, V) :- own(X, Y, W), X != Y, V = msum(W, <X, Y>).
acc_own(X, Y, V) :- own(X, Z, W1), Z != X, acc_own(Z, Y, W2), Y != X, V = msum(W1 * W2, <Z>).
close_link(X, Y) :- acc_own(X, Y, V), company(X), company(Y), th(T), V >= T.
close_link(X, Y) :- close_link(Y, X).
close_link(X, Y) :- acc_own(Z, X, V), acc_own(Z, Y, W), company(X), company(Y),
                    X != Y, Z != X, Z != Y, th(T), V >= T, W >= T.
"#;

/// Family control (Algorithm 8): a family `F` (membership in `member/2`)
/// controls what its members control individually, plus everything the
/// family's joint holdings — via controlled companies (rule 2) and via
/// members' direct shares (rule 3) — push over 50%. Rules 2 and 3 share
/// one monotonic total per `(F, y)` pair, as the paper prescribes.
pub const FAMILY_CONTROL_PROGRAM: &str = r#"
@output("fcontrol").
fcontrol(F, Y) :- member(F, X), control(X, Y), X != Y.
fcontrol(F, Y) :- fcontrol(F, X), own(X, Y, W), X != Y, msum(W, <X>) > 0.5.
fcontrol(F, Y) :- member(F, I), own(I, Y, W), msum(W, <I>) > 0.5.
"#;

/// Family close links (Algorithm 9 / Definition 2.9): companies `x`, `y`
/// are close-linked when two *different* members `i ≠ j` of a family both
/// accumulate at least the threshold in them. Combined with the close-link
/// program for `acc_own`.
pub const FAMILY_CLOSELINK_PROGRAM: &str = r#"
@output("f_close_link").
f_close_link(X, Y) :- member(F, I), member(F, J), I != J,
                      acc_own(I, X, V), acc_own(J, Y, W),
                      company(X), company(Y), X != Y,
                      th(T), V >= T, W >= T.
f_close_link(X, Y) :- f_close_link(Y, X).
"#;

/// Personal links (Algorithm 7): two distinct persons are `partner_of`
/// candidates when the externally computed `#linkprob` exceeds 0.5. The
/// function receives both persons' feature vectors.
pub const PARTNER_PROGRAM: &str = r#"
@output("person_link").
person_link(X, Y) :-
    person_attr(X, N1, S1, B1, BC1, SX1, A1),
    person_attr(Y, N2, S2, B2, BC2, SX2, A2),
    X != Y,
    #linkprob(N1, S1, B1, BC1, A1, N2, S2, B2, BC2, A2) > 0.5.
"#;

/// The generic-graph pipeline: input mapping (Algorithm 2) promoting the
/// source relations into generic `node`/`node_type`/`link`/`edge_type`
/// facts with Skolem-invented OIDs, the control logic over generic links,
/// and the output mapping (Algorithm 4) back to `g_control`.
pub const GENERIC_PIPELINE_PROGRAM: &str = r#"
@output("g_control").
% ---- Algorithm 2: input mapping ------------------------------------
% One Skolem-invented OID per node; determinism makes links line up with
% nodes regardless of rule application order (the paper's observation).
node(Z, N), node_type(Z, "Company") :- company_attr(N, _, _, _, _, _), Z = #sk_node(N).
node(Z, N), node_type(Z, "Person")  :- person_attr(N, _, _, _, _, _, _), Z = #sk_node(N).
link(E, X2, Y2, W), edge_type(E, "Shareholding") :-
    own(X, Y, W), X2 = #sk_node(X), Y2 = #sk_node(Y), E = #sk_edge(X, Y, W).
% ---- Algorithm 5 over generic constructs ---------------------------
g_ctl(Z, Z) :- node(Z, _).
g_ctl(X, Y) :- g_ctl(X, Z), link(E, Z, Y, W), edge_type(E, "Shareholding"),
               Z != Y, X != Y, msum(W, <Z>) > 0.5.
% ---- Algorithm 4: output mapping -----------------------------------
g_control(NX, NY) :- g_ctl(X, Y), X != Y, node(X, NX), node(Y, NY).
"#;

/// Deliberately broken variants of the bundled programs, one per analyzer
/// family: `(name, source, code)` where `name` is a stable slug (the golden
/// `check`-output snapshots are keyed by it) and `code` is the diagnostic
/// the strict analyzer must report. These double as the fixture set for the
/// span audit: every diagnostic the analyzer emits for them must carry a
/// real source span.
pub const BROKEN_VARIANTS: [(&str, &str, DiagCode); 6] = [
    (
        // Head var never bound (misspelled join var).
        "control_unbound_head",
        "@output(\"control\").\n\
         control(X, Y) :- company(X).",
        DiagCode::V002,
    ),
    (
        // acc_own used with two different arities.
        "closelink_arity_mismatch",
        "@output(\"close_link\").\n\
         acc_own(X, Y, V) :- own(X, Y, W), X != Y, V = msum(W, <X, Y>).\n\
         close_link(X, Y) :- acc_own(X, Y), th(T).",
        DiagCode::V006,
    ),
    (
        // Negation through the predicate's own recursion.
        "family_control_unstratified",
        "@output(\"fcontrol\").\n\
         fcontrol(F, Y) :- member(F, X), control(X, Y).\n\
         fcontrol(F, Y) :- fcontrol(F, X), own(X, Y, W), not fcontrol(F, Y).",
        DiagCode::V005,
    ),
    (
        // Unbound variable under negation.
        "family_closelink_unsafe_negation",
        "@output(\"f_close_link\").\n\
         f_close_link(X, Y) :- company(X), company(Y), not acc_own(X, Y, V).",
        DiagCode::V001,
    ),
    (
        // Aggregate not the last body literal.
        "partner_aggregate_not_last",
        "@output(\"person_link\").\n\
         person_link(X, V) :- person_attr(X, N, S, B, BC, SX, A),\n\
         V = msum(B, <X>), person_attr(X, N, S, B, BC, SX, A).",
        DiagCode::V014,
    ),
    (
        // @post column beyond the predicate arity.
        "generic_post_out_of_range",
        "@output(\"g_control\").\n\
         @post(\"g_control\", \"max(7)\").\n\
         g_control(X, Y) :- g_ctl(X, Y).",
        DiagCode::V008,
    ),
];

/// Runs the control program; returns `(x, y)` control pairs, `x ≠ y`.
pub fn run_control(g: &CompanyGraph) -> Vec<(NodeId, NodeId)> {
    let program = Program::parse(CONTROL_PROGRAM).expect("valid program");
    let engine = Engine::new(&program).expect("compiles");
    let mut db = load_for(g, &program);
    engine.run(&mut db).expect("fixpoint");
    read_pairs(&db, "control")
}

/// Runs the close-link program with threshold `t`; returns unordered pairs
/// reported once with `x < y`.
pub fn run_close_links(g: &CompanyGraph, t: f64) -> Vec<(NodeId, NodeId)> {
    let program = Program::parse(CLOSELINK_PROGRAM).expect("valid program");
    let engine = Engine::new(&program).expect("compiles");
    let mut db = load_for(g, &program);
    db.assert_fact("th", &[Const::float(t)]).expect("arity");
    engine.run(&mut db).expect("fixpoint");
    let mut pairs: Vec<(NodeId, NodeId)> = read_pairs(&db, "close_link")
        .into_iter()
        .map(|(a, b)| if a < b { (a, b) } else { (b, a) })
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Runs the family-control program for families given as
/// `(family id, members)`; returns `(family id, controlled company)`.
pub fn run_family_control(
    g: &CompanyGraph,
    families: &[(String, Vec<NodeId>)],
) -> Vec<(String, NodeId)> {
    let src = format!("{CONTROL_PROGRAM}\n{FAMILY_CONTROL_PROGRAM}");
    let program = Program::parse(&src).expect("valid program");
    let engine = Engine::new(&program).expect("compiles");
    let mut db = load_for(g, &program);
    for (fid, members) in families {
        for m in members {
            let f = db.sym(fid);
            let ms = crate::mapping::sym_of(&mut db, *m);
            db.assert_fact("member", &[f, ms]).expect("arity");
        }
    }
    engine.run(&mut db).expect("fixpoint");
    let Some(rel) = db.relation("fcontrol") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for row in rel.rows() {
        let fid = db.resolve(row[0]).unwrap_or("?").to_owned();
        if let Some(y) = crate::mapping::node_of(&db, row[1]) {
            // Exclude members themselves (the program reports only
            // companies because members are persons, but be explicit).
            if g.is_company(y) {
                out.push((fid, y));
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Runs the family close-link program (Algorithms 6 + 9) for the given
/// families and threshold; returns unordered company pairs with `x < y`.
pub fn run_family_close_links(
    g: &CompanyGraph,
    families: &[(String, Vec<NodeId>)],
    t: f64,
) -> Vec<(NodeId, NodeId)> {
    let src = format!(
        "{CLOSELINK_PROGRAM}
{FAMILY_CLOSELINK_PROGRAM}"
    );
    let program = Program::parse(&src).expect("valid program");
    let engine = Engine::new(&program).expect("compiles");
    let mut db = load_for(g, &program);
    db.assert_fact("th", &[Const::float(t)]).expect("arity");
    for (fid, members) in families {
        for m in members {
            let f = db.sym(fid);
            let ms = crate::mapping::sym_of(&mut db, *m);
            db.assert_fact("member", &[f, ms]).expect("arity");
        }
    }
    engine.run(&mut db).expect("fixpoint");
    let mut pairs: Vec<(NodeId, NodeId)> = read_pairs(&db, "f_close_link")
        .into_iter()
        .map(|(a, b)| if a < b { (a, b) } else { (b, a) })
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Runs the personal-link program (Algorithm 7) with `#linkprob` bound to
/// a trained [`FamilyDetector`]. Returns unordered person pairs.
///
/// Note: this is the *unblocked* variant — every person pair is compared,
/// which is exactly the quadratic blow-up the clustering of Algorithm 3
/// avoids; see [`mod@crate::augment`] for the scalable path.
pub fn run_person_links(g: &CompanyGraph, detector: &FamilyDetector) -> Vec<(NodeId, NodeId)> {
    use linkage::distance::normalized_levenshtein;

    let program = Program::parse(PARTNER_PROGRAM).expect("valid program");
    let mut engine = Engine::new(&program).expect("compiles");
    let model = detector.model().clone();
    engine.register_function("linkprob", move |ctx, args| {
        if args.len() != 10 {
            return Err(format!("expected 10 args, got {}", args.len()));
        }
        let s = |i: usize| ctx.str_of(args[i]).unwrap_or("").to_owned();
        let exact = |a: &str, b: &str| -> Option<f64> {
            if a.is_empty() || b.is_empty() {
                None
            } else {
                Some(if a == b { 0.0 } else { 1.0 })
            }
        };
        // Argument order matches mapping::load_facts person_attr layout:
        // (name, surname, birth, birth_city, address) per person.
        let d_surname = if s(1).is_empty() || s(6).is_empty() {
            None
        } else {
            Some(normalized_levenshtein(&s(1), &s(6)))
        };
        let birth = match (args[2].as_i64(), args[7].as_i64()) {
            (Some(a), Some(b)) if a != 0 && b != 0 => {
                Some(crate::family::kinship_gap_distance(a, b))
            }
            _ => None,
        };
        let d_bcity = exact(&s(3), &s(8));
        let d_addr = exact(&s(4), &s(9));
        // Model feature order: surname, address, birth, birth_city.
        let p = model.link_probability(&[d_surname, d_addr, birth, d_bcity]);
        Ok(Const::float(p))
    });
    let mut db = load_for(g, &program);
    engine.run(&mut db).expect("fixpoint");
    let mut pairs: Vec<(NodeId, NodeId)> = read_pairs(&db, "person_link")
        .into_iter()
        .map(|(a, b)| if a < b { (a, b) } else { (b, a) })
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Renders the engine's cost-based join-plan report
/// ([`Engine::plan_report`]) for a program against the facts of `g`:
/// per stratum and rule, the chosen literal order, probe keys and
/// estimated cardinalities. `threshold` additionally loads the close-link
/// `th` fact so threshold-dependent plans see realistic statistics.
pub fn plan_report(src: &str, g: &CompanyGraph, threshold: Option<f64>) -> String {
    let program = Program::parse(src).expect("valid program");
    let engine = Engine::new(&program).expect("compiles");
    let mut db = load_for(g, &program);
    if let Some(t) = threshold {
        db.assert_fact("th", &[Const::float(t)]).expect("arity");
    }
    engine.plan_report(&db).expect("plan report")
}

/// Runs the generic (schema-independent) pipeline; returns control pairs.
pub fn run_generic_control(g: &CompanyGraph) -> Vec<(NodeId, NodeId)> {
    let program = Program::parse(GENERIC_PIPELINE_PROGRAM).expect("valid program");
    let engine = Engine::new(&program).expect("compiles");
    let mut db = load_for(g, &program);
    engine.run(&mut db).expect("fixpoint");
    read_pairs(&db, "g_control")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closelink::{close_links, CloseLink};
    use crate::control::{all_control, family_control};
    use crate::paper_graphs::{figure1, figure2};
    use pgraph::algo::PathLimits;

    const BUNDLED: [(&str, &str); 6] = [
        ("control", CONTROL_PROGRAM),
        ("closelink", CLOSELINK_PROGRAM),
        ("family_control", FAMILY_CONTROL_PROGRAM),
        ("family_closelink", FAMILY_CLOSELINK_PROGRAM),
        ("partner", PARTNER_PROGRAM),
        ("generic", GENERIC_PIPELINE_PROGRAM),
    ];

    #[test]
    fn bundled_programs_are_clean() {
        // Every bundled program must survive the strict analyzer profile
        // (the one `vadalink check` uses) with zero error-level
        // diagnostics, and stay in the warded fragment — the paper's PTIME
        // guarantee (Section 4.4) applies only inside it, so a V012
        // warning is as much a regression here as an error.
        for (name, src) in BUNDLED {
            let program = datalog::Program::parse(src).unwrap();
            let analysis = datalog::analyze_with(&program, &datalog::AnalysisConfig::strict());
            assert!(
                analysis.is_clean(),
                "{name} program has analyzer errors:\n{}",
                analysis.render(src)
            );
            assert!(
                !analysis
                    .diagnostics
                    .iter()
                    .any(|d| d.code == datalog::DiagCode::V012),
                "{name} program left the warded fragment:\n{}",
                analysis.render(src)
            );
        }
    }

    #[test]
    fn bundled_programs_keep_their_strata() {
        // `Engine::stratum_of` for every predicate of every bundled
        // program: base relations at 0, each cross-component dependency
        // one layer up.
        let expected: [(&str, &[(&str, usize)]); 6] = [
            (
                CONTROL_PROGRAM,
                &[("company", 0), ("control", 1), ("own", 0), ("person", 0)],
            ),
            (
                CLOSELINK_PROGRAM,
                &[
                    ("acc_own", 1),
                    ("close_link", 2),
                    ("company", 0),
                    ("own", 0),
                    ("th", 0),
                ],
            ),
            (
                FAMILY_CONTROL_PROGRAM,
                &[("control", 0), ("fcontrol", 1), ("member", 0), ("own", 0)],
            ),
            (
                FAMILY_CLOSELINK_PROGRAM,
                &[
                    ("acc_own", 0),
                    ("company", 0),
                    ("f_close_link", 1),
                    ("member", 0),
                    ("th", 0),
                ],
            ),
            (PARTNER_PROGRAM, &[("person_attr", 0), ("person_link", 1)]),
            (
                GENERIC_PIPELINE_PROGRAM,
                &[
                    ("company_attr", 0),
                    ("edge_type", 1),
                    ("g_control", 3),
                    ("g_ctl", 2),
                    ("link", 1),
                    ("node", 1),
                    ("node_type", 1),
                    ("own", 0),
                    ("person_attr", 0),
                ],
            ),
        ];
        for (src, strata) in expected {
            // Directive-only predicates have no stratum, and adding them
            // moves no other predicate.
            let ghosts = "@output(\"orphan\").\n@post(\"ghost\", \"max(0)\").\n";
            for src in [src.to_owned(), format!("{ghosts}{src}")] {
                let program = Program::parse(&src).unwrap();
                let engine = Engine::new(&program).unwrap();
                let mut preds: Vec<&str> = program
                    .rules
                    .iter()
                    .flat_map(|r| r.head.iter().map(|h| h.pred.as_str()))
                    .chain(program.rules.iter().flat_map(|r| {
                        r.body.iter().filter_map(|l| match l {
                            datalog::ast::Literal::Atom(a) | datalog::ast::Literal::Negated(a) => {
                                Some(a.pred.as_str())
                            }
                            _ => None,
                        })
                    }))
                    .collect();
                preds.sort_unstable();
                preds.dedup();
                let got: Vec<(&str, usize)> = preds
                    .iter()
                    .map(|&p| (p, engine.stratum_of(p).expect("atom predicate")))
                    .collect();
                assert_eq!(got, strata, "{src}");
                assert_eq!(engine.stratum_of("orphan"), None, "{src}");
                assert_eq!(engine.stratum_of("ghost"), None, "{src}");
            }
        }
    }

    #[test]
    fn broken_program_variants_are_rejected() {
        // One deliberately broken variant per bundled program, each
        // tripping a different analyzer code. The engine must also refuse
        // to compile them under the strict profile.
        for (name, src, code) in BROKEN_VARIANTS {
            let program = datalog::Program::parse(src).unwrap();
            let analysis = datalog::analyze_with(&program, &datalog::AnalysisConfig::strict());
            assert!(
                analysis.errors().any(|d| d.code == code),
                "{name}: expected {code}, got:\n{}",
                analysis.render(src)
            );
            let opts = datalog::EngineOptions {
                analysis: datalog::AnalysisConfig::strict(),
                ..Default::default()
            };
            let err = Engine::with(&program, datalog::FunctionRegistry::default(), opts)
                .expect_err("broken variant must not compile");
            assert!(
                matches!(err, datalog::DatalogError::Analysis(_)),
                "{name}: expected an Analysis error, got {err:?}"
            );
        }
    }

    #[test]
    fn control_program_matches_native_on_figure1() {
        let f = figure1();
        let datalog: Vec<_> = run_control(&f.graph);
        let mut native = all_control(&f.graph);
        native.sort_unstable();
        assert_eq!(datalog, native);
    }

    #[test]
    fn control_program_matches_native_on_figure2() {
        let f = figure2();
        let datalog = run_control(&f.graph);
        let mut native = all_control(&f.graph);
        native.sort_unstable();
        assert_eq!(datalog, native);
    }

    #[test]
    fn generic_pipeline_matches_direct_program() {
        let f = figure1();
        let generic = run_generic_control(&f.graph);
        let direct = run_control(&f.graph);
        assert_eq!(generic, direct);
    }

    #[test]
    fn close_link_program_matches_native_on_dags() {
        // Figure 1/2 are DAGs, so the walk-sum Datalog semantics coincides
        // with the exact simple-path semantics.
        for f in [figure1(), figure2()] {
            let datalog = run_close_links(&f.graph, 0.2);
            let mut native: Vec<(NodeId, NodeId)> =
                close_links(&f.graph, 0.2, PathLimits::default())
                    .into_iter()
                    .map(|CloseLink { x, y, .. }| (x, y))
                    .collect();
            native.sort_unstable();
            assert_eq!(datalog, native);
        }
    }

    #[test]
    fn family_close_link_program_matches_native() {
        let f = figure1();
        let members = vec![f.node("P1"), f.node("P2")];
        let datalog = run_family_close_links(&f.graph, &[("fam".to_owned(), members.clone())], 0.2);
        let native =
            crate::closelink::family_close_links(&f.graph, &members, 0.2, PathLimits::default());
        assert_eq!(datalog, native);
        let dg = (f.node("D").min(f.node("G")), f.node("D").max(f.node("G")));
        assert!(datalog.contains(&dg), "the Introduction's D-G example");
    }

    #[test]
    fn family_control_program_matches_native() {
        let f = figure1();
        let members = vec![f.node("P1"), f.node("P2")];
        let datalog = run_family_control(&f.graph, &[("fam".to_owned(), members.clone())]);
        let native = family_control(&f.graph, &members);
        let datalog_companies: Vec<NodeId> = datalog
            .into_iter()
            .filter(|(fid, _)| fid == "fam")
            .map(|(_, y)| y)
            .collect();
        // Datalog's rule 1 also includes companies controlled by single
        // members; the native group fixpoint contains those too.
        assert_eq!(datalog_companies, native);
        assert!(
            datalog_companies.contains(&f.node("L")),
            "family controls L"
        );
    }
}
