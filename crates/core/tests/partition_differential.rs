//! Partial replay against from-scratch evaluation on generated registers.
//!
//! Control, accumulated ownership and family control recurse through
//! `msum`, so an incremental session replays their units — since partial
//! replay, only the partitions (controllers, owned entities, families) an
//! update reaches. Each workload opens a session on a generated register
//! with extra cross-shareholding cycles and self-loops, feeds it the
//! serving benchmark's kind of updates — one to three stakes bought at
//! weights that sum to exactly one half (0.05, 0.1, 0.15, 0.25), and
//! withdrawals of earlier stakes and of register edges — and after every
//! update compares every relation's canonical dump, float bits included,
//! with a fresh fixpoint over the same facts. It also checks that partial
//! replay ran and re-derived a small share of the partitions.
//!
//! Updates keep the frozen image of `own` and the lookup indexes of
//! `control` current instead of rebuilding them, so three control cases
//! aim at that upkeep: a stake deleted from the middle of the frozen
//! `own`, the same stake bought back (it lands at the end), and one
//! update whose inserts move more than the upkeep budget allows, which
//! drops the image and rebuilds it.

use datalog::{Const, Database, Engine, IncrementalEngine, Program, Update, UpdateStats};
use gen::company::{generate, CompanyGraphConfig};
use vada_link::mapping::load_facts;
use vada_link::model::CompanyGraph;
use vada_link::programs::{CLOSELINK_PROGRAM, CONTROL_PROGRAM, FAMILY_CONTROL_PROGRAM};

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const WEIGHTS: [f64; 4] = [0.05, 0.1, 0.15, 0.25];

/// An `own` fact by node names.
type Own = (String, String, f64);

/// One update: stakes withdrawn, then stakes bought.
struct Step {
    del: Vec<Own>,
    ins: Vec<Own>,
}

fn register(seed: u64) -> CompanyGraph {
    let register = generate(&CompanyGraphConfig {
        persons: 400,
        companies: 200,
        cycle_rate: 0.05,
        self_loop_rate: 0.01,
        seed,
        ..Default::default()
    });
    CompanyGraph::new(register.graph)
}

/// The register's facts, plus what a program needs beyond them: the
/// close-link threshold, and families of up to three consecutive persons.
fn base(g: &CompanyGraph, program: &str) -> Database {
    let mut db = Database::new();
    load_facts(g, &mut db);
    if program.contains("th(T)") {
        db.assert_fact("th", &[Const::float(0.2)]).unwrap();
    }
    if program.contains("member(") {
        let persons = names(&db, "person");
        for (i, p) in persons.iter().enumerate() {
            let (f, x) = (db.sym(&format!("f{}", i / 3)), db.sym(p));
            db.assert_fact("member", &[f, x]).unwrap();
        }
    }
    db
}

fn names(db: &Database, pred: &str) -> Vec<String> {
    let rel = db.relation(pred).expect("loaded");
    rel.rows().map(|t| db.display(t[0])).collect()
}

/// The update feed, over existing nodes only, so the session and the
/// from-scratch database intern the same symbols in the same order.
fn feed(db: &Database, seed: u64, steps: usize) -> Vec<Step> {
    let mut rng = Rng(seed);
    let nodes: Vec<String> = [names(db, "person"), names(db, "company")].concat();
    let companies = names(db, "company");
    let rel = db.relation("own").expect("loaded");
    let mut live: Vec<Own> = rel
        .rows()
        .map(|t| (db.display(t[0]), db.display(t[1]), t[2].as_f64().unwrap()))
        .collect();
    let mut out = Vec::with_capacity(steps);
    for _ in 0..steps {
        let mut del = Vec::new();
        if rng.below(10) < 4 {
            let i = rng.below(live.len());
            del.push(live.swap_remove(i));
        }
        let mut ins = Vec::new();
        for _ in 0..1 + rng.below(3) {
            let a = nodes[rng.below(nodes.len())].clone();
            let b = companies[rng.below(companies.len())].clone();
            let stake = (a, b, WEIGHTS[rng.below(WEIGHTS.len())]);
            if !live.contains(&stake) {
                live.push(stake.clone());
                ins.push(stake);
            }
        }
        out.push(Step { del, ins });
    }
    out
}

fn own_tuple(mut sym: impl FnMut(&str) -> Const, (a, b, w): &Own) -> Vec<Const> {
    vec![sym(a), sym(b), Const::float(*w)]
}

fn canonical_state(db: &Database) -> Vec<(String, Vec<String>)> {
    let mut preds: Vec<String> = (0..db.pred_count() as u32)
        .map(|p| db.pred_name(p).to_owned())
        .collect();
    preds.sort();
    preds
        .into_iter()
        .map(|p| {
            let rows = db.dump_canonical(&p);
            (p, rows)
        })
        .collect()
}

/// The register's facts with `steps` applied.
fn from_scratch_facts(g: &CompanyGraph, src: &str, steps: &[Step]) -> Database {
    let mut db = base(g, src);
    for step in steps {
        for stake in &step.del {
            let t = own_tuple(|s| db.sym(s), stake);
            db.retract_fact("own", &t);
        }
        for stake in &step.ins {
            let t = own_tuple(|s| db.sym(s), stake);
            db.assert_fact("own", &t).unwrap();
        }
    }
    db
}

fn from_scratch(g: &CompanyGraph, program: &Program, src: &str, steps: &[Step]) -> Database {
    let mut db = from_scratch_facts(g, src, steps);
    Engine::new(program).unwrap().run(&mut db).unwrap();
    db
}

/// The update of one step, over the session's symbols.
fn update_of(session: &mut IncrementalEngine, step: &Step) -> Update {
    let mut update = Update::default();
    for stake in &step.del {
        update
            .delete
            .push(("own".into(), own_tuple(|s| session.sym(s), stake)));
    }
    for stake in &step.ins {
        update
            .insert
            .push(("own".into(), own_tuple(|s| session.sym(s), stake)));
    }
    update
}

/// Runs the feed through one session; returns the partitions re-derived
/// per partial replay and the partitions of the partitioned predicate.
fn assert_partial_replay_matches(src: &str, pred: &str, seed: u64, steps: usize) -> (f64, usize) {
    let g = register(seed);
    let program = Program::parse(src).unwrap();
    let db = base(&g, src);
    let log = feed(&db, seed ^ 0xFEED, steps);
    let mut session = IncrementalEngine::new(&program, db).unwrap();
    assert!(
        session.info().partitioned_units >= 1,
        "{pred}: no partition"
    );
    let (mut replays, mut reached) = (0usize, 0usize);
    for (i, step) in log.iter().enumerate() {
        let update = update_of(&mut session, step);
        let stats = session.apply_update(&update).unwrap().stats;
        assert!(!stats.full_recompute);
        replays += stats.partial_replays;
        reached += stats.replayed_partitions;
        assert_eq!(
            canonical_state(session.db()),
            canonical_state(&from_scratch(&g, &program, src, &log[..=i])),
            "{pred} seed {seed}: diverged after update {i}"
        );
    }
    assert!(replays > 0, "{pred} seed {seed}: no partial replay ran");
    // Row for row, not just as sets: a session opened on the final facts
    // holds the partitioned relation in the same order.
    let fresh = IncrementalEngine::new(&program, from_scratch_facts(&g, src, &log)).unwrap();
    let rows = |db: &Database| -> Vec<Vec<Const>> {
        db.relation(pred)
            .unwrap()
            .rows()
            .map(<[Const]>::to_vec)
            .collect()
    };
    assert_eq!(
        rows(session.db()),
        rows(fresh.db()),
        "{pred} seed {seed}: row order"
    );
    let rel = session.db().relation(pred).unwrap();
    let col = usize::from(pred == "acc_own");
    let mut partitions: Vec<Const> = rel.rows().map(|t| t[col]).collect();
    partitions.sort();
    partitions.dedup();
    (reached as f64 / replays as f64, partitions.len())
}

#[test]
fn control_replays_the_controllers_an_update_reaches() {
    for seed in [3, 41] {
        let (per_replay, partitions) =
            assert_partial_replay_matches(CONTROL_PROGRAM, "control", seed, 24);
        assert!(
            per_replay * 20.0 < partitions as f64,
            "control seed {seed}: {per_replay} of {partitions} partitions per replay"
        );
    }
}

#[test]
fn accumulated_ownership_replays_the_owned_entities_an_update_reaches() {
    let (per_replay, partitions) =
        assert_partial_replay_matches(CLOSELINK_PROGRAM, "acc_own", 5, 16);
    assert!(
        per_replay * 2.0 < partitions as f64,
        "acc_own: {per_replay} of {partitions} partitions per replay"
    );
}

#[test]
fn family_control_replays_the_families_an_update_reaches() {
    let src = format!("{CONTROL_PROGRAM}\n{FAMILY_CONTROL_PROGRAM}");
    let (per_replay, partitions) = assert_partial_replay_matches(&src, "fcontrol", 7, 16);
    assert!(
        per_replay * 4.0 < partitions as f64,
        "fcontrol: {per_replay} of {partitions} partitions per replay"
    );
}

/// Runs `log` through a control session on register `seed`, comparing
/// every relation with a fresh fixpoint after each update. Before each
/// update a reader looks up both columns of `control`, as the serve
/// readers do, so the update finds the lookup indexes built. Returns
/// each update's statistics.
fn control_updates_match(seed: u64, log: &[Step]) -> Vec<UpdateStats> {
    let g = register(seed);
    let program = Program::parse(CONTROL_PROGRAM).unwrap();
    let mut session = IncrementalEngine::new(&program, base(&g, CONTROL_PROGRAM)).unwrap();
    let mut stats = Vec::new();
    for (i, step) in log.iter().enumerate() {
        let db = session.db();
        let probe = db.relation("control").unwrap().row(0).to_vec();
        assert!(!db.query("control", &[Some(probe[0]), None]).is_empty());
        assert!(!db.query("control", &[None, Some(probe[1])]).is_empty());
        let update = update_of(&mut session, step);
        stats.push(session.apply_update(&update).unwrap().stats);
        assert_eq!(
            canonical_state(session.db()),
            canonical_state(&from_scratch(&g, &program, CONTROL_PROGRAM, &log[..=i])),
            "control seed {seed}: diverged after update {i}"
        );
    }
    stats
}

#[test]
fn control_deletes_from_the_middle_of_a_frozen_relation_and_buys_back() {
    let seed = 3;
    let db = base(&register(seed), CONTROL_PROGRAM);
    let own = db.relation("own").unwrap();
    let mid = own.row(own.len() as u32 / 2);
    let stake: Own = (
        db.display(mid[0]),
        db.display(mid[1]),
        mid[2].as_f64().unwrap(),
    );
    let log = [
        Step {
            del: vec![stake.clone()],
            ins: vec![],
        },
        Step {
            del: vec![],
            ins: vec![stake],
        },
    ];
    for (i, stats) in control_updates_match(seed, &log).iter().enumerate() {
        // One row of a few hundred: the image and indexes are carried.
        assert!(stats.images_carried > 0, "update {i}: nothing carried");
        assert_eq!(stats.images_rebuilt, 0, "update {i}");
    }
}

#[test]
fn control_update_past_the_upkeep_budget_rebuilds_and_matches() {
    let seed = 41;
    let db = base(&register(seed), CONTROL_PROGRAM);
    let own_rows = db.relation("own").unwrap().len();
    // A long day of the feed as one update — about two stakes bought per
    // row of `own`, each moving the row ids behind its key group in the
    // image of `own` — then one more stake.
    let mut log = feed(&db, seed ^ 0xB16, own_rows + 1);
    let tail = log.split_off(log.len() - 1);
    let day = Step {
        del: log.iter().flat_map(|s| s.del.clone()).collect(),
        ins: log.iter().flat_map(|s| s.ins.clone()).collect(),
    };
    let bought = day.ins.len();
    let log: Vec<Step> = std::iter::once(day).chain(tail).collect();
    let stats = control_updates_match(seed, &log);
    // The inserts stopped carrying the image part-way, and the replay
    // that read it rebuilt it …
    assert!(
        stats[0].images_carried < bought,
        "{bought} bought: {:?}",
        stats[0]
    );
    assert!(stats[0].images_rebuilt > 0, "{:?}", stats[0]);
    // … which the next update carries again.
    assert_eq!(stats[1].images_rebuilt, 0, "{:?}", stats[1]);
}
