//! Concurrency differential: readers versus a live writer.
//!
//! N reader threads issue point lookups against a [`GraphService`] while
//! one writer thread applies randomized insert/delete batches of `own`
//! edges. Every reader answer must be **byte-identical** to the
//! from-scratch reference ([`serve::GraphService::query_on`]: the program
//! re-run over the pinned epoch's base facts) — under snapshot isolation
//! a concurrent commit must never bleed into an in-flight read. Each goal
//! is also re-read on the same pin, so a snapshot that shifted
//! mid-request would betray itself twice over.
//!
//! The suite runs the paper's control and close-link programs at reader
//! counts 1, 2 and 8.

use std::sync::Arc;

use datalog::{Const, Database, Program};
use gen::company::{generate, CompanyGraphConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{GraphService, ServiceConfig};
use vada_link::mapping::load_facts;
use vada_link::model::CompanyGraph;
use vada_link::programs::{CLOSELINK_PROGRAM, CONTROL_PROGRAM};

const THRESHOLD: f64 = 0.2;

/// A generated ownership graph (40 persons, 24 companies) loaded as
/// facts, plus the node names (`n<i>`, persons first) goals are drawn
/// from.
fn register(seed: u64) -> (Database, Vec<String>) {
    let out = generate(&CompanyGraphConfig {
        persons: 40,
        companies: 24,
        seed,
        ..Default::default()
    });
    let names: Vec<String> = out
        .persons
        .iter()
        .chain(out.companies.iter())
        .map(|n| format!("n{}", n.index()))
        .collect();
    let mut db = Database::new();
    load_facts(&CompanyGraph::new(out.graph), &mut db);
    (db, names)
}

/// Builds a service over a generated ownership graph; returns it plus
/// the node names goals are drawn from.
fn service_for(src: &str, with_threshold: bool, seed: u64) -> (Arc<GraphService>, Vec<String>) {
    let (mut db, names) = register(seed);
    if with_threshold {
        db.assert_fact("th", &[Const::float(THRESHOLD)])
            .expect("arity");
    }
    let program = Program::parse(src).expect("bundled program parses");
    let svc = GraphService::new(&program, db, ServiceConfig::default()).expect("service opens");
    (Arc::new(svc), names)
}

/// One random goal over the served program's predicates: first-bound,
/// second-bound or fully bound, over the output predicate or the `own`
/// base relation.
fn random_goal(rng: &mut StdRng, names: &[String], output_pred: &str) -> String {
    let a = &names[rng.random_range(0..names.len())];
    let b = &names[rng.random_range(0..names.len())];
    match rng.random_range(0..5u32) {
        0 => format!("{output_pred}(\"{a}\", X)?"),
        1 => format!("{output_pred}(X, \"{b}\")?"),
        2 => format!("{output_pred}(\"{a}\", \"{b}\")?"),
        3 => format!("own(\"{a}\", X, W)?"),
        _ => format!("own(\"{a}\", \"{b}\", W)?"),
    }
}

/// A randomized signed-fact batch: inserts fresh `own` edges with exactly
/// representable decimal weights (so a later delete's parse lands on the
/// identical f64) and deletes a few edges inserted earlier.
fn random_delta(
    rng: &mut StdRng,
    names: &[String],
    inserted: &mut Vec<(String, String, &'static str)>,
) -> String {
    const WEIGHTS: [&str; 4] = ["0.05", "0.1", "0.15", "0.25"];
    let mut lines = vec!["% randomized writer batch".to_owned()];
    for _ in 0..rng.random_range(1..4usize) {
        let a = names[rng.random_range(0..names.len())].clone();
        let b = names[rng.random_range(0..names.len())].clone();
        let w = WEIGHTS[rng.random_range(0..WEIGHTS.len())];
        lines.push(format!("+own({a},{b},{w})"));
        inserted.push((a, b, w));
    }
    while !inserted.is_empty() && rng.random_bool(0.4) {
        let i = rng.random_range(0..inserted.len());
        let (a, b, w) = inserted.swap_remove(i);
        lines.push(format!("-own({a},{b},{w})"));
    }
    lines.join("\n")
}

/// Spins up `readers` lookup threads against one writer applying
/// `batches` randomized updates; every answer is checked byte-for-byte
/// against the from-scratch reference on the reader's pinned snapshot.
fn run_differential(src: &str, with_threshold: bool, output_pred: &'static str, readers: usize) {
    let (svc, names) = service_for(src, with_threshold, 0xD1FF ^ readers as u64);
    let names = Arc::new(names);

    let writer = {
        let svc = svc.clone();
        let names = names.clone();
        std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(WRITER_SEED);
            let mut inserted = Vec::new();
            for _ in 0..24 {
                let delta = random_delta(&mut rng, &names, &mut inserted);
                svc.apply_delta(&delta).expect("writer batch applies");
            }
        })
    };

    let reader_threads: Vec<_> = (0..readers)
        .map(|t| {
            let svc = svc.clone();
            let names = names.clone();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xBEEF + t as u64);
                for i in 0..40 {
                    let goal = random_goal(&mut rng, &names, output_pred);
                    let pin = svc.pin();
                    let direct = svc.lookup_on(&pin, &goal).expect("lookup");
                    let reference = svc.query_on(pin.db(), &goal).expect("reference query");
                    assert_eq!(
                        direct,
                        reference,
                        "reader {t} iteration {i}: lookup diverged from \
                         the from-scratch reference on pinned epoch {} for {goal}",
                        pin.id()
                    );
                    // Snapshot stability: the same pin answers the same.
                    let again = svc.lookup_on(&pin, &goal).expect("re-read");
                    assert_eq!(direct, again, "pinned epoch shifted under reader {t}");
                }
            })
        })
        .collect();

    writer.join().expect("writer thread");
    for r in reader_threads {
        r.join().expect("reader thread");
    }

    // All pins released; exactly the writer's batches were committed and
    // the final epoch still answers consistently.
    let stats = svc.registry().snapshot_stats();
    assert_eq!(stats.pinned_now, 0, "leaked pins");
    assert_eq!(stats.committed, 25, "initial epoch + 24 writer batches");
    let pin = svc.pin();
    let goal = format!("{output_pred}(X, Y)?");
    let direct = svc.lookup_on(&pin, &goal).expect("final lookup");
    let reference = svc.query_on(pin.db(), &goal).expect("final reference");
    assert_eq!(direct, reference, "final epoch differential");
}

const WRITER_SEED: u64 = 0x5EED_1207;

#[test]
fn control_differential_1_reader() {
    run_differential(CONTROL_PROGRAM, false, "control", 1);
}

#[test]
fn control_differential_2_readers() {
    run_differential(CONTROL_PROGRAM, false, "control", 2);
}

#[test]
fn control_differential_8_readers() {
    run_differential(CONTROL_PROGRAM, false, "control", 8);
}

#[test]
fn closelink_differential_1_reader() {
    run_differential(CLOSELINK_PROGRAM, true, "close_link", 1);
}

#[test]
fn closelink_differential_2_readers() {
    run_differential(CLOSELINK_PROGRAM, true, "close_link", 2);
}

#[test]
fn closelink_differential_8_readers() {
    run_differential(CLOSELINK_PROGRAM, true, "close_link", 8);
}

/// Eight readers released together onto an epoch nobody has read yet:
/// every answer is byte-identical to the from-scratch reference, and
/// the epoch's lookup indexes were built once per (relation, column) —
/// on the one shared database, lazily, and only for the columns the
/// goals bind or the writer's partial replay read. The next epoch then
/// starts with the index of the relation its update left alone, the
/// index of the one it inserted into kept current, and none for the one
/// the replay rewrote.
#[test]
fn first_readers_of_a_fresh_epoch_share_one_index_build() {
    const READERS: usize = 8;
    let (mut db, names) = register(0x1DE);
    // A base relation the control program never mentions: no update can
    // touch it.
    for (i, name) in names.iter().enumerate() {
        let seat = ["rome", "milan", "turin"][i % 3];
        db.assert_str_facts("seat", &[&[name, seat]]);
    }
    let program = Program::parse(CONTROL_PROGRAM).expect("bundled program parses");
    let svc = Arc::new(GraphService::new(&program, db, ServiceConfig::default()).unwrap());
    svc.apply_delta("+own(n0,n1,0.05)").expect("commit");

    let built = |pin: &serve::PinnedEpoch, pred: &str| {
        pin.db().relation(pred).expect("relation").indexed_columns()
    };
    let fresh = svc.pin();
    assert_eq!(fresh.id(), 1);
    for pred in ["own", "seat"] {
        assert_eq!(built(&fresh, pred), 0, "{pred}: the writer builds no index");
    }
    // The update's reach and the reached partitions' old rows are reads
    // of control's lookup indexes, which the epoch shares.
    assert_eq!(built(&fresh, "control"), 2, "the writer's partial replay");

    let barrier = Arc::new(std::sync::Barrier::new(READERS));
    let names = Arc::new(names);
    let threads: Vec<_> = (0..READERS)
        .map(|t| {
            let (svc, names, barrier) = (svc.clone(), names.clone(), barrier.clone());
            std::thread::spawn(move || {
                let pin = svc.pin();
                barrier.wait();
                // Every reader starts on a different node, so the first
                // lookups of all four shapes race.
                for i in 0..names.len() {
                    let a = &names[(i + t * 5) % names.len()];
                    let b = &names[(i * 7 + t) % names.len()];
                    for goal in [
                        format!("control(\"{a}\", X)?"),
                        format!("control(X, \"{a}\")?"),
                        format!("control(\"{a}\", \"{b}\")?"),
                        format!("own(\"{a}\", X, W)?"),
                        "seat(X, \"milan\")?".to_owned(),
                    ] {
                        let direct = svc.lookup_on(&pin, &goal).expect("lookup");
                        let reference = svc.query_on(pin.db(), &goal).expect("reference");
                        assert_eq!(direct, reference, "reader {t}: {goal}");
                    }
                }
                pin.id()
            })
        })
        .collect();
    for t in threads {
        assert_eq!(
            t.join().expect("reader thread"),
            1,
            "all readers share epoch 1"
        );
    }
    assert_eq!(built(&fresh, "control"), 2, "both columns were bound");
    assert_eq!(built(&fresh, "own"), 1, "only the owner column was bound");
    assert_eq!(built(&fresh, "seat"), 1);
    assert_eq!(svc.stats().scan_lookups, 0, "every goal bound an argument");

    // A person who controls nothing but themselves takes a company over.
    let pairs = svc.lookup_on(&fresh, "control(X, Y)?").expect("all pairs");
    let raider = (0..40)
        .map(|i| &names[i])
        .find(|p| {
            pairs
                .iter()
                .filter(|r| r.starts_with(&format!("control({p},")))
                .count()
                == 1
        })
        .expect("a person without holdings");
    let target = &names[40];
    let applied = svc
        .apply_delta(&format!("+own({raider},{target},0.9)"))
        .expect("takeover commits");
    assert!(applied
        .inserted
        .contains(&format!("control({raider},{target})")));
    let next = svc.pin();
    assert_eq!(next.id(), 2);
    assert_eq!(
        built(&next, "seat"),
        1,
        "an untouched relation keeps its index"
    );
    assert_eq!(
        built(&next, "control"),
        0,
        "a relation the replay rewrote re-indexes"
    );
    assert_eq!(built(&next, "own"), 1, "the insert kept the index current");
    assert_eq!(built(&fresh, "control"), 2, "the old epoch keeps its own");
    assert_eq!(svc.stats().scan_lookups, 1, "the all-free goal above");
}
